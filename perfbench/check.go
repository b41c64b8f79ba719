package main

import (
	"fmt"

	"ita"
	"ita/internal/core"
	"ita/internal/model"
	"ita/internal/textproc"
	"ita/internal/vsm"
	"ita/internal/window"
)

// sameMatches reports whether two results are identical.
func sameMatches(a, b []ita.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// equivalent reports whether got is a correct top-k given want: the
// score sequences are equal, and the document sets differ only among
// documents tied at the k-th score (either one is a correct answer).
func equivalent(got []ita.Match, want []model.ScoredDoc, k int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Score != want[i].Score {
			return false
		}
	}
	if len(got) == 0 {
		return true
	}
	tie := want[len(want)-1].Score
	free := len(got) == k // a full result may pick any of a tie group
	seen := make(map[model.DocID]bool, len(got))
	for _, m := range got {
		if !free || m.Score != tie {
			seen[m.Doc] = true
		}
	}
	for _, d := range want {
		if !free || d.Score != tie {
			if !seen[d.Doc] {
				return false
			}
			delete(seen, d.Doc)
		}
	}
	return len(seen) == 0
}

// analysis is the facade's analysis order replayed without any index:
// every document and query of the operation log is analyzed in log
// order, so term ids equal the facade's.
type analysis struct {
	docs    []*model.Document
	queries map[model.QueryID]*model.Query
}

func analyze(ops []op) (*analysis, error) {
	pipe := textproc.NewPipeline(textproc.NewDictionary(), true, true)
	var wt vsm.Cosine
	a := &analysis{queries: make(map[model.QueryID]*model.Query)}
	for _, o := range ops {
		switch o.kind {
		case opIngest:
			for i, text := range o.texts {
				d, err := model.NewDocument(model.DocID(o.first+i+1), arrival(o.first+i), wt.DocPostings(pipe.TermFreqs(text)))
				if err != nil {
					return nil, err
				}
				a.docs = append(a.docs, d)
			}
		case opRegister:
			q, err := model.NewQuery(o.id, k, wt.QueryTerms(pipe.TermFreqs(o.texts[0])))
			if err != nil {
				return nil, err
			}
			a.queries[o.id] = q
		}
	}
	return a, nil
}

// oracleCheck compares the facade's final results for the sampled
// queries with core.Oracle's brute force over the same final window.
// It returns the number of queries compared and how many differ.
func oracleCheck(docs []*model.Document, queries map[model.QueryID]*model.Query, ids []ita.QueryID, final map[ita.QueryID][]ita.Match, w workload) (int, int, error) {
	o := core.NewOracle(window.Count{N: w.window})
	start := max(0, len(docs)-w.window)
	for _, d := range docs[start:] {
		if err := o.Process(d); err != nil {
			return 0, 0, err
		}
	}
	bad := 0
	for _, id := range ids {
		q, ok := queries[id]
		if !ok {
			return 0, 0, fmt.Errorf("oracle check: query %d was never registered", id)
		}
		if err := o.Register(q); err != nil {
			return 0, 0, err
		}
		want, _ := o.Result(id)
		if !equivalent(final[id], want, k) {
			bad++
		}
	}
	return len(ids), bad, nil
}

// replicaCheck compares every live query's final result in the traced
// replica with the facade's. It returns the number compared and how
// many differ.
func replicaCheck(r *replica, final map[ita.QueryID][]ita.Match) (int, int) {
	bad := 0
	if len(r.live) != len(final) {
		bad++
	}
	for id := range r.live {
		want, _ := r.m.Result(id)
		if !equivalent(final[id], want, k) {
			bad++
		}
	}
	return len(r.live), bad
}

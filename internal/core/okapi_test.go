package core_test

import (
	"math/rand"
	"testing"
	"time"

	"ita/internal/core"
	"ita/internal/model"
	"ita/internal/shard"
	"ita/internal/vsm"
	"ita/internal/window"
)

// TestEnginesAgreeUnderOkapiWeights repeats the cross-engine agreement
// check with BM25 impact weights, whose values exceed 1 and cluster
// around the saturation bound — a different numeric regime from cosine
// that exercises threshold arithmetic with larger magnitudes.
func TestEnginesAgreeUnderOkapiWeights(t *testing.T) {
	weighter := vsm.NewOkapi(12)
	rng := rand.New(rand.NewSource(5))

	mkDoc := func(id model.DocID, seq int) *model.Document {
		nTerms := 2 + rng.Intn(5)
		freqs := map[model.TermID]int{}
		for len(freqs) < nTerms {
			freqs[model.TermID(rng.Intn(20))] = 1 + rng.Intn(4)
		}
		d, err := model.NewDocument(id, time.Unix(0, int64(seq)*int64(time.Millisecond)), weighter.DocPostings(freqs))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	mkQuery := func(id model.QueryID) *model.Query {
		n := 1 + rng.Intn(3)
		freqs := map[model.TermID]int{}
		for len(freqs) < n {
			freqs[model.TermID(rng.Intn(20))] = 1 + rng.Intn(3)
		}
		q, err := model.NewQuery(id, 1+rng.Intn(4), weighter.QueryTerms(freqs))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	pol := window.Count{N: 12}
	oracle := core.NewOracle(pol)
	ita := shard.New(pol, 1)
	naive := core.NewNaive(pol)
	var queries []*model.Query
	for i := 0; i < 5; i++ {
		q := mkQuery(model.QueryID(i + 1))
		queries = append(queries, q)
		for _, e := range []core.Engine{oracle, ita, naive} {
			if err := e.Register(q); err != nil {
				t.Fatal(err)
			}
		}
	}

	var win []*model.Document
	for step := 0; step < 250; step++ {
		d := mkDoc(model.DocID(step+1), step)
		win = append(win, d)
		if len(win) > pol.N {
			win = win[1:]
		}
		for _, e := range []core.Engine{oracle, ita, naive} {
			if err := e.Process(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := ita.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, q := range queries {
			truth := map[model.DocID]float64{}
			for _, wd := range win {
				truth[wd.ID] = model.Score(q, wd)
			}
			want, _ := oracle.Result(q.ID)
			for _, e := range []core.Engine{ita, naive} {
				got, _ := e.Result(q.ID)
				if err := checkAgainstOracle(e.Name(), got, want, truth); err != nil {
					t.Fatalf("step %d query %d: %v", step, q.ID, err)
				}
			}
		}
	}
}

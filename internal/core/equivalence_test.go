package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ita/internal/core"
	"ita/internal/model"
	"ita/internal/shard"
	"ita/internal/window"
)

// streamGen builds small random documents over a narrow vocabulary with
// quantized weights, deliberately provoking score ties, shared terms and
// frequent top-k churn.
type streamGen struct {
	r      *rand.Rand
	nextID model.DocID
	seq    int
	vocab  int
}

func newStreamGen(seed int64, vocab int) *streamGen {
	return &streamGen{r: rand.New(rand.NewSource(seed)), nextID: 1, vocab: vocab}
}

func (g *streamGen) doc(t *testing.T) *model.Document {
	t.Helper()
	nTerms := 1 + g.r.Intn(5)
	used := map[model.TermID]bool{}
	var ps []model.Posting
	for len(ps) < nTerms {
		term := model.TermID(g.r.Intn(g.vocab))
		if used[term] {
			continue
		}
		used[term] = true
		// Quantized weights force ties across documents.
		w := float64(1+g.r.Intn(8)) / 16
		ps = append(ps, model.Posting{Term: term, Weight: w})
	}
	d, err := model.NewDocument(g.nextID, time.Unix(0, 0).Add(time.Duration(g.seq)*5*time.Millisecond), ps)
	if err != nil {
		t.Fatal(err)
	}
	g.nextID++
	g.seq++
	return d
}

func (g *streamGen) query(t *testing.T, id model.QueryID) *model.Query {
	t.Helper()
	n := 1 + g.r.Intn(4)
	used := map[model.TermID]bool{}
	var ts []model.QueryTerm
	for len(ts) < n {
		term := model.TermID(g.r.Intn(g.vocab))
		if used[term] {
			continue
		}
		used[term] = true
		ts = append(ts, model.QueryTerm{Term: term, Weight: float64(1+g.r.Intn(4)) / 4})
	}
	q, err := model.NewQuery(id, 1+g.r.Intn(5), ts)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// checkAgainstOracle verifies an engine result against the oracle's:
// identical lengths, identical score sequences, and every reported
// (doc, score) pair must be exact under the true scores. Documents may
// legitimately differ from the oracle's inside equal-score groups.
func checkAgainstOracle(tag string, got, want []model.ScoredDoc, truth map[model.DocID]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d results, oracle has %d (got=%v want=%v)", tag, len(got), len(want), got, want)
	}
	seen := map[model.DocID]bool{}
	for i := range got {
		if got[i].Score != want[i].Score {
			return fmt.Errorf("%s: position %d score %g, oracle %g (got=%v want=%v)", tag, i, got[i].Score, want[i].Score, got, want)
		}
		ts, ok := truth[got[i].Doc]
		if !ok {
			return fmt.Errorf("%s: doc %d not in window", tag, got[i].Doc)
		}
		if ts != got[i].Score {
			return fmt.Errorf("%s: doc %d reported score %g, true score %g", tag, got[i].Doc, got[i].Score, ts)
		}
		if seen[got[i].Doc] {
			return fmt.Errorf("%s: doc %d repeated", tag, got[i].Doc)
		}
		seen[got[i].Doc] = true
	}
	return nil
}

type mirror struct {
	win []*model.Document
	n   int
}

func (m *mirror) add(d *model.Document) {
	m.win = append(m.win, d)
	if len(m.win) > m.n {
		m.win = m.win[1:]
	}
}

func (m *mirror) truth(q *model.Query) map[model.DocID]float64 {
	out := make(map[model.DocID]float64, len(m.win))
	for _, d := range m.win {
		out[d.ID] = model.Score(q, d)
	}
	return out
}

// TestEnginesAgreeOnRandomStreams is the central correctness test: ITA
// (both probe orders, with and without roll-up), plain Naïve (kmax = k)
// and Naïve+kmax are driven through identical random streams and must
// match the brute-force oracle after every event. ITA's structural
// invariants are checked at every step.
func TestEnginesAgreeOnRandomStreams(t *testing.T) {
	configs := []struct {
		seed  int64
		vocab int
		win   int
		docs  int
	}{
		{seed: 1, vocab: 10, win: 8, docs: 150},   // tiny vocab: heavy overlap, many ties
		{seed: 2, vocab: 25, win: 15, docs: 200},  // moderate
		{seed: 3, vocab: 100, win: 30, docs: 250}, // sparse matches
		{seed: 4, vocab: 6, win: 5, docs: 150},    // extreme churn
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("seed%d_v%d_w%d", cfg.seed, cfg.vocab, cfg.win), func(t *testing.T) {
			g := newStreamGen(cfg.seed, cfg.vocab)
			pol := window.Count{N: cfg.win}

			oracle := core.NewOracle(pol)
			engines := []core.Engine{
				shard.New(pol, 1),
				shard.New(pol, 1, shard.WithRoundRobinProbe()),
				shard.New(pol, 1, shard.WithoutRollup()),
				core.NewNaive(pol, core.WithKmax(func(k int) int { return k })),
				core.NewNaive(pol),
			}
			tags := []string{"ita", "ita-rr", "ita-norollup", "naive-plain", "naive-2k"}

			var queries []*model.Query
			for i := 0; i < 6; i++ {
				q := g.query(t, model.QueryID(i+1))
				queries = append(queries, q)
			}
			m := &mirror{n: cfg.win}

			// Register half the queries up front, half mid-stream.
			register := func(q *model.Query) {
				if err := oracle.Register(q); err != nil {
					t.Fatal(err)
				}
				for _, e := range engines {
					if err := e.Register(q); err != nil {
						t.Fatalf("%s: %v", e.Name(), err)
					}
				}
			}
			for _, q := range queries[:3] {
				register(q)
			}

			for step := 0; step < cfg.docs; step++ {
				if step == cfg.docs/2 {
					for _, q := range queries[3:] {
						register(q)
					}
				}
				if step == 3*cfg.docs/4 {
					// Drop a query mid-stream on every engine.
					oracle.Unregister(queries[0].ID)
					for _, e := range engines {
						e.Unregister(queries[0].ID)
					}
				}
				d := g.doc(t)
				m.add(d)
				if err := oracle.Process(d); err != nil {
					t.Fatal(err)
				}
				for _, e := range engines {
					if err := e.Process(d); err != nil {
						t.Fatalf("%s: %v", e.Name(), err)
					}
				}
				for ei, e := range engines {
					if ita, ok := e.(*shard.Engine); ok {
						if err := ita.CheckInvariants(); err != nil {
							t.Fatalf("step %d %s: %v", step, tags[ei], err)
						}
					}
				}
				for _, q := range queries {
					want, ok := oracle.Result(q.ID)
					truth := m.truth(q)
					for ei, e := range engines {
						got, ok2 := e.Result(q.ID)
						if ok != ok2 {
							t.Fatalf("step %d %s query %d: known=%v, oracle known=%v", step, tags[ei], q.ID, ok2, ok)
						}
						if !ok {
							continue
						}
						if err := checkAgainstOracle(tags[ei], got, want, truth); err != nil {
							t.Fatalf("step %d query %d: %v", step, q.ID, err)
						}
					}
				}
			}
		})
	}
}

// TestEnginesAgreeTimeWindow repeats the agreement check with a
// time-based window and bursty arrival times, exercising multi-document
// expirations per event.
func TestEnginesAgreeTimeWindow(t *testing.T) {
	g := newStreamGen(99, 15)
	span := 40 * time.Millisecond
	pol := window.Span{D: span}

	oracle := core.NewOracle(pol)
	engines := []core.Engine{shard.New(pol, 1), core.NewNaive(pol)}
	tags := []string{"ita", "naive"}

	var queries []*model.Query
	for i := 0; i < 4; i++ {
		q := g.query(t, model.QueryID(i+1))
		queries = append(queries, q)
		if err := oracle.Register(q); err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			if err := e.Register(q); err != nil {
				t.Fatal(err)
			}
		}
	}

	r := rand.New(rand.NewSource(7))
	now := time.Unix(0, 0)
	var win []*model.Document
	for step := 0; step < 200; step++ {
		// Bursty clock: mostly small gaps with occasional long silences
		// that expire many documents at once.
		gap := time.Duration(r.Intn(10)) * time.Millisecond
		if r.Intn(10) == 0 {
			gap = span + 10*time.Millisecond
		}
		now = now.Add(gap)
		base := g.doc(t)
		d, err := model.NewDocument(base.ID, now, base.Postings)
		if err != nil {
			t.Fatal(err)
		}

		win = append(win, d)
		cut := 0
		for cut < len(win) && now.Sub(win[cut].Arrival) >= span {
			cut++
		}
		win = win[cut:]

		if err := oracle.Process(d); err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			if err := e.Process(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := engines[0].(*shard.Engine).CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		truthFor := func(q *model.Query) map[model.DocID]float64 {
			out := make(map[model.DocID]float64)
			for _, wd := range win {
				out[wd.ID] = model.Score(q, wd)
			}
			return out
		}
		for _, q := range queries {
			want, _ := oracle.Result(q.ID)
			for ei, e := range engines {
				got, _ := e.Result(q.ID)
				if err := checkAgainstOracle(tags[ei], got, want, truthFor(q)); err != nil {
					t.Fatalf("step %d query %d: %v", step, q.ID, err)
				}
			}
		}
	}
}

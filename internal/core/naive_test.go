package core

import (
	"testing"

	"ita/internal/model"
	"ita/internal/window"
)

// Term ids for the baseline tests: A is the query term, B and C are
// background noise.
const (
	termA model.TermID = 1
	termB model.TermID = 2
	termC model.TermID = 3
)

func TestNaivePlainRescansOnEveryTopKDeletion(t *testing.T) {
	// With kmax = k, any expiry of a top-k document must trigger a full
	// rescan — the behaviour of the paper's unenhanced baseline.
	e := NewNaive(window.Count{N: 3}, WithKmax(func(k int) int { return k }))
	q := mkQuery(t, 1, 2, model.QueryTerm{Term: termA, Weight: 1})
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	rescansAfterRegister := e.Stats().Rescans
	if rescansAfterRegister != 1 {
		t.Fatalf("registration rescans = %d, want 1", rescansAfterRegister)
	}
	// Fill the window with matching docs: every expiry is a view hit.
	for i := 1; i <= 10; i++ {
		if err := e.Process(mkDoc(t, model.DocID(i), i, model.Posting{Term: termA, Weight: float64(i%5+1) / 10})); err != nil {
			t.Fatal(err)
		}
	}
	// Docs 1..7 expired; each expiry hit the 2-doc view with some
	// regularity. At minimum several rescans must have happened.
	if rescans := e.Stats().Rescans - rescansAfterRegister; rescans == 0 {
		t.Fatal("plain naive never rescanned despite top-k expirations")
	}
}

func TestNaiveKmaxToleratesDeletions(t *testing.T) {
	// With kmax = 2k, the view absorbs kmax−k deletions of its members
	// before the first rescan; the next one triggers it.
	e := NewNaive(window.Count{N: 4})
	q := mkQuery(t, 1, 2, model.QueryTerm{Term: termA, Weight: 1}) // kmax = 4
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	// Fill the window with 4 matching docs (all enter the view).
	for i := 1; i <= 4; i++ {
		if err := e.Process(mkDoc(t, model.DocID(i), i, model.Posting{Term: termA, Weight: float64(5-i) / 10})); err != nil {
			t.Fatal(err)
		}
	}
	baseline := e.Stats().Rescans
	// Two non-matching arrivals expire docs 1 and 2 — both view
	// members. View shrinks 4 → 3 → 2 = k: no rescan yet.
	for i := 5; i <= 6; i++ {
		if err := e.Process(mkDoc(t, model.DocID(i), i, model.Posting{Term: termC, Weight: 0.5})); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().Rescans - baseline; got != 0 {
		t.Fatalf("kmax view rescanned %d times, want 0 (view 4→2 = k)", got)
	}
	// One more view expiry drops it below k: now a rescan must happen.
	if err := e.Process(mkDoc(t, 7, 7, model.Posting{Term: termC, Weight: 0.5})); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Rescans - baseline; got != 1 {
		t.Fatalf("rescans = %d, want exactly 1 after view underflow", got)
	}
}

func TestNaiveFenceSkipsWeakArrivals(t *testing.T) {
	// Once the view is full at kmax, arrivals scoring at or below the
	// fence must not be admitted.
	e := NewNaive(window.Count{N: 100})
	q := mkQuery(t, 1, 1, model.QueryTerm{Term: termA, Weight: 1}) // kmax = 2
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	weights := []float64{0.5, 0.4, 0.3, 0.2}
	for i, w := range weights {
		if err := e.Process(mkDoc(t, model.DocID(i+1), i+1, model.Posting{Term: termA, Weight: w})); err != nil {
			t.Fatal(err)
		}
	}
	st := e.queries[1]
	if st.view.Len() != 2 {
		t.Fatalf("view len = %d, want kmax=2", st.view.Len())
	}
	// The third arrival (0.3) was admitted then evicted, setting the
	// fence; the fourth (0.2 ≤ fence) was skipped outright.
	if st.fence != 0.3 {
		t.Fatalf("fence = %g, want 0.3 (the last evicted score)", st.fence)
	}
	if !st.view.Contains(1) || !st.view.Contains(2) {
		t.Fatalf("view should hold the two strongest docs")
	}
	// Result is the top-1.
	res, _ := e.Result(1)
	if len(res) != 1 || res[0].Doc != 1 {
		t.Fatalf("result = %v", res)
	}
}

func TestNaiveZeroScoreDocsStayOut(t *testing.T) {
	e := NewNaive(window.Count{N: 10})
	q := mkQuery(t, 1, 3, model.QueryTerm{Term: termA, Weight: 1})
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := e.Process(mkDoc(t, model.DocID(i), i, model.Posting{Term: termB, Weight: 0.5})); err != nil {
			t.Fatal(err)
		}
	}
	res, _ := e.Result(1)
	if len(res) != 0 {
		t.Fatalf("zero-score docs in result: %v", res)
	}
	if e.queries[1].view.Len() != 0 {
		t.Fatal("zero-score docs entered the view")
	}
}

func TestNaiveUnregisterStopsWork(t *testing.T) {
	e := NewNaive(window.Count{N: 5})
	q := mkQuery(t, 1, 2, model.QueryTerm{Term: termA, Weight: 1})
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	if !e.Unregister(1) {
		t.Fatal("unregister failed")
	}
	before := e.Stats().ScoreComputations
	if err := e.Process(mkDoc(t, 1, 1, model.Posting{Term: termA, Weight: 0.5})); err != nil {
		t.Fatal(err)
	}
	if e.Stats().ScoreComputations != before {
		t.Fatal("unregistered query still scored")
	}
}

func TestOracleResultOrder(t *testing.T) {
	e := NewOracle(window.Count{N: 10})
	q := mkQuery(t, 1, 3, model.QueryTerm{Term: termA, Weight: 1})
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	// Include a score tie: docs 2 and 3 both at 0.4.
	for i, w := range []float64{0.9, 0.4, 0.4, 0.1} {
		if err := e.Process(mkDoc(t, model.DocID(i+1), i+1, model.Posting{Term: termA, Weight: w})); err != nil {
			t.Fatal(err)
		}
	}
	res, ok := e.Result(1)
	if !ok || len(res) != 3 {
		t.Fatalf("result = %v, %v", res, ok)
	}
	want := []model.ScoredDoc{{Doc: 1, Score: 0.9}, {Doc: 2, Score: 0.4}, {Doc: 3, Score: 0.4}}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("result[%d] = %v, want %v", i, res[i], want[i])
		}
	}
}

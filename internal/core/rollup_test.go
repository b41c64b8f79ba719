package core_test

import (
	"testing"

	"ita/internal/core"
	"ita/internal/model"
	"ita/internal/shard"
	"ita/internal/window"
)

// TestRollupTieAtKthGuard drives the floor across score ties: runs of
// equal scores straddle the (k+tgtMargin)-th slot, so raises must stop
// at the tie (raiseFloor's newF <= f guard) and purges must keep
// members at exactly F. Small margins make every arrival a potential
// raise; the oracle cross-check pins the results at every step.
func TestRollupTieAtKthGuard(t *testing.T) {
	pol := window.Count{N: 10}
	e := shard.New(pol, 1, shard.WithFloorMargins(1, 1))
	o := core.NewOracle(pol)

	q := query(t, 1, 2, model.QueryTerm{Term: termA, Weight: 1})
	for _, eng := range []core.Engine{e, o} {
		if err := eng.Register(q); err != nil {
			t.Fatal(err)
		}
	}

	// Three docs: 0.5, 0.3, 0.3 (tie at the 2nd slot), then an arrival
	// at 0.3 creating a three-way tie, then arrivals that raise Sk and
	// trigger roll-ups across the tie boundary.
	seq := []float64{0.5, 0.3, 0.3, 0.3, 0.4, 0.4, 0.3, 0.5, 0.3, 0.3, 0.4, 0.5, 0.5}
	for i, w := range seq {
		d := doc(t, model.DocID(i+1), i, model.Posting{Term: termA, Weight: w})
		if err := e.Process(d); err != nil {
			t.Fatal(err)
		}
		if err := o.Process(doc(t, model.DocID(i+1), i, model.Posting{Term: termA, Weight: w})); err != nil {
			t.Fatal(err)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got, _ := e.Result(1)
		want, _ := o.Result(1)
		if len(got) != len(want) {
			t.Fatalf("step %d: %v vs oracle %v", i, got, want)
		}
		for j := range want {
			if got[j].Score != want[j].Score {
				t.Fatalf("step %d pos %d: score %g vs oracle %g", i, j, got[j].Score, want[j].Score)
			}
		}
	}
}

// TestRollupShrinksMonitoredRegion verifies the floor raise's purpose:
// once strong arrivals lift the floor, weaker future arrivals fall
// below the probe bound and no longer cause probe hits — the θ-ordered
// index skips the query entirely.
func TestRollupShrinksMonitoredRegion(t *testing.T) {
	// Margins (1,1) with k=1: a raise fires when |R| > 3 and sets the
	// floor to the 2nd-best score.
	stream := func(e *shard.Engine) {
		// Strong docs grow R to 4 members; the raise lifts F to 0.8 and
		// purges the 0.7 and 0.6 tail.
		for i, w := range []float64{0.9, 0.8, 0.7, 0.6} {
			if err := e.Process(doc(t, model.DocID(i+1), i+1, model.Posting{Term: termA, Weight: w})); err != nil {
				t.Fatal(err)
			}
		}
	}
	e := shard.New(window.Count{N: 100}, 1, shard.WithFloorMargins(1, 1))
	q := query(t, 1, 1, model.QueryTerm{Term: termA, Weight: 1})
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	stream(e)
	if e.Stats().RollupSteps == 0 {
		t.Fatal("the strong arrivals should have raised the floor")
	}
	hitsAfterRaise := e.Stats().ProbeHits
	// Mid-weight arrivals contribute 0.5 < b = F·fac ≈ 0.8: with the
	// floor raised they must be filtered without probe hits.
	for i := 5; i <= 14; i++ {
		if err := e.Process(doc(t, model.DocID(i), i, model.Posting{Term: termA, Weight: 0.5})); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().ProbeHits; got != hitsAfterRaise {
		t.Fatalf("probe hits grew %d → %d; the raised floor failed to shrink the monitored region",
			hitsAfterRaise, got)
	}
	// Sanity: the same stream with raises disabled does hit the query —
	// the floor stays at the Register-time 0, whose bound any
	// contribution beats.
	e2 := shard.New(window.Count{N: 100}, 1, shard.WithFloorMargins(1, 1), shard.WithoutRollup())
	if err := e2.Register(q); err != nil {
		t.Fatal(err)
	}
	stream(e2)
	base := e2.Stats().ProbeHits
	for i := 5; i <= 14; i++ {
		if err := e2.Process(doc(t, model.DocID(i), i, model.Posting{Term: termA, Weight: 0.5})); err != nil {
			t.Fatal(err)
		}
	}
	if got := e2.Stats().ProbeHits; got == base {
		t.Fatal("without raises the mid-weight arrivals should probe the query")
	}
}

package ita_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ita/internal/harness"
)

// phaseGate is the acceptance of one phase's cells: how many a record
// holds (max 0: no upper bound) and what each holds positive.
type phaseGate struct {
	min, max int
	positive []string
}

// bound gates a summary metric to lo <= v <= hi.
type bound struct {
	metric string
	lo, hi float64
}

// benchGate is one experiment's acceptance over its checked-in record.
// Names in positive lists are metrics or numeric labels; a 0/1 outcome
// such as promoted_ok is positive when true.
type benchGate struct {
	phases   map[string]phaseGate // by the "phase" label; nil when cells have none
	positive []string             // held positive by every cell
	sweep    string               // numeric label whose largest value must reach top
	top      float64
	baseline bool // embeds a baseline that measures a different layout
	summary  []bound
	check    func(t *testing.T, r harness.Record)
}

var benchGates = map[string]benchGate{
	"throughput": {}, "batch": {}, "reads": {}, "recovery": {},
	"failover": {phases: map[string]phaseGate{
		"steady":  {min: 1, positive: []string{"lag_samples", "drain_ms"}},
		"catchup": {min: 1, positive: []string{"behind_epochs", "catchup_ms"}},
		"promote": {min: 1, max: 1, positive: []string{"promote_ms", "first_read_ms", "promoted_ok"}},
	}},
	"cluster": {
		phases: map[string]phaseGate{
			"ingest": {min: 2, positive: []string{"ingest_docs_per_sec", "rel_baseline"}},
			"read":   {min: 2, positive: []string{"merged_read_us", "owner_read_us", "read_iters"}},
		},
		positive: []string{"equivalent_ok"},
		sweep:    "nodes", top: 2,
	},
	// The blocked posting layout against its embedded slice baseline at
	// the paper-scale 100k window: the compression must halve the
	// storage bill, and must not cost the read path anything.
	"window": {
		positive: []string{"window", "postings", "posting_bytes", "bytes_per_posting", "ingest_events_per_sec", "probe_latency_us"},
		sweep:    "window", top: 100_000,
		baseline: true,
		summary: []bound{
			{"bytes_per_posting_reduction_pct", 50, math.Inf(1)},
			{"probe_latency_ratio", math.SmallestNonzeroFloat64, 1.0}, // in (0, 1]
		},
	},
	// The θ-ordered probe index: per-event probe-cost fields on every
	// cell, and an ingest curve that rules out the old ingest cliff.
	"scale": {
		positive: []string{"queries", "bytes_per_query", "ingest_events", "probe_hits_per_event", "score_computations_per_event"},
		sweep:    "queries", top: 1_000_000,
		baseline: true,
		summary:  []bound{{"ingest_curve_ratio", 0.25, math.Inf(1)}},
		check:    scaleChainGate,
	},
}

// num reads a metric, or else a numeric label, of a cell (0 if absent).
func num(c harness.Cell, name string) float64 {
	if v, ok := c.Metrics[name]; ok {
		return v
	}
	v, _ := strconv.ParseFloat(c.Labels[name], 64)
	return v
}

// TestBenchJSONSchemas checks every checked-in BENCH_*.json artifact:
// each must parse as a valid record of the shared schema (hardware
// context, at least one cell) and pass its experiment's gate.
func TestBenchJSONSchemas(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 8 {
		t.Fatalf("found %d BENCH_*.json files, want at least 8 (sharded, batch, reads, recovery, scale, failover, cluster, window)", len(files))
	}
	for _, f := range files {
		t.Run(f, func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var r harness.Record
			if err := json.Unmarshal(data, &r); err != nil {
				t.Fatalf("%s does not parse: %v", f, err)
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			g, ok := benchGates[r.Experiment]
			if !ok {
				t.Fatalf("%s: no gate for experiment %q", f, r.Experiment)
			}
			phases := map[string]int{}
			top := 0.0
			requirePositive := func(c harness.Cell, names []string) {
				for _, name := range names {
					if num(c, name) <= 0 {
						t.Fatalf("malformed %s cell (%s not positive): %+v", r.Experiment, name, c)
					}
				}
			}
			for _, c := range r.Cells {
				requirePositive(c, g.positive)
				if g.phases != nil {
					ph := c.Labels["phase"]
					pg, ok := g.phases[ph]
					if !ok {
						t.Fatalf("unknown %s phase %q", r.Experiment, ph)
					}
					phases[ph]++
					requirePositive(c, pg.positive)
				}
				top = math.Max(top, num(c, g.sweep))
			}
			for ph, pg := range g.phases {
				if phases[ph] < pg.min || pg.max > 0 && phases[ph] > pg.max {
					t.Fatalf("%s phase coverage %v, want %q cells in [%d, %d] (0: unbounded)",
						r.Experiment, phases, ph, pg.min, pg.max)
				}
			}
			if top < g.top {
				t.Fatalf("%s sweep tops out at %s=%g, want at least %g", r.Experiment, g.sweep, top, g.top)
			}
			if g.baseline {
				if r.Baseline == nil || len(r.Baseline.Cells) == 0 {
					t.Fatalf("%s record has no embedded baseline", r.Experiment)
				}
				if r.Params["layout"] == r.Baseline.Params["layout"] {
					t.Fatalf("record and baseline both measure layout %v", r.Params["layout"])
				}
			}
			for _, b := range g.summary {
				if v := r.Summary[b.metric]; v < b.lo || v > b.hi {
					t.Fatalf("%s %s is %g, want in [%g, %g]", r.Experiment, b.metric, v, b.lo, b.hi)
				}
			}
			if g.check != nil {
				g.check(t, r)
			}
		})
	}
}

// scaleChainGate holds the scale record against its baseline chain:
// ingest at the largest query count at least 25× the deepest chained
// record's, and bytes/query at least 30% below the original
// pointer-and-map layout (the deepest baseline) at the largest query
// count both sweeps share.
func scaleChainGate(t *testing.T, r harness.Record) {
	maxQ, cur1M := 0.0, 0.0
	for _, c := range r.Cells {
		if q := num(c, "queries"); q > maxQ {
			maxQ, cur1M = q, c.Metrics["ingest_events_per_sec"]
		}
	}
	var prior1M float64
	for b := r.Baseline; b != nil; b = b.Baseline {
		for _, c := range b.Cells {
			if num(c, "queries") == maxQ && c.Metrics["ingest_events_per_sec"] > 0 {
				prior1M = c.Metrics["ingest_events_per_sec"] // deepest chained record wins
			}
		}
	}
	if prior1M > 0 && cur1M < 25*prior1M {
		t.Fatalf("ingest at %g queries is %.1f events/s, want >= 25x the prior record's %.2f", maxQ, cur1M, prior1M)
	}

	deepest := r.Baseline
	for deepest.Baseline != nil && len(deepest.Baseline.Cells) > 0 {
		deepest = deepest.Baseline
	}
	cur, old, ok := r.AttachBaseline(*deepest, "queries")
	if !ok {
		t.Fatalf("no shared sweep cell between layout %v and deepest baseline %v", r.Params["layout"], deepest.Params["layout"])
	}
	if red := 100 * (1 - cur.Metrics["bytes_per_query"]/old.Metrics["bytes_per_query"]); red < 30 {
		t.Fatalf("bytes/query reduction vs %v is %.1f%%, want >= 30%%", deepest.Params["layout"], red)
	}
}

package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tiny shrinks a workload so that every phase runs in well under a
// second while keeping its shape (durability, churn, sharding, query
// popularity).
func tiny(w workload) workload {
	w.window = 300
	w.queries = 120
	w.watchEvery = 10
	w.pacedRate = 25
	return w
}

const tinyRun = time.Second

type contract struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEveryMetricEmitted runs every workload tiny, untraced and traced,
// and checks that each run passes its correctness gate and reports
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		w, ok := lookupWorkload(cw.Name)
		if !ok {
			t.Fatalf("workload %q of BENCHMARK.json is not defined", cw.Name)
		}
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			rep, err := measure(tiny(w), 7, tinyRun, traced, t.TempDir(), "test")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.result.Correct || rep.result.Failed != 0 || rep.result.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced,
					rep.result.Correct, rep.result.Failed, rep.result.Attempted)
			}
			if len(rep.result.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(rep.result.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.result.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestInputDigest checks that the seed alone determines the inputs.
func TestInputDigest(t *testing.T) {
	plan := planFor(tinyRun)
	for _, w := range workloads {
		w = tiny(w)
		a, err := generate(w, 1, plan)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 1, plan)
		c, _ := generate(w, 2, plan)
		if a.digest != b.digest {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.name, a.digest)
		}
	}
}

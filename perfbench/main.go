// Command perfbench is the repository benchmark. It drives the public
// ita facade with inputs generated from a seed, reports the end-to-end
// metrics a user of the engine sees, checks every run's results against
// a brute-force oracle, and, with --trace 1, replays the same
// operations through the modules' exported functions with a span
// around every layer call to report per-layer metrics. See README.md.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: wide-window, many-queries or durable-churn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time per run, split across the phases")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced replay instead of the end-to-end metrics")
	out := fs.String("out", ".bench_build", "directory for scratch engines and span files")
	commit := fs.String("commit", "unknown", "revision of the measured sources, recorded in the stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	rep, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out, *commit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(os.Stdout)
	if !rep.result.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: results differ from the oracle or the replica\n", w.name)
		return 1
	}
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// result is the line the benchmark contract reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's full output: the environment and input stamp,
// the named metrics in print order, and the contract line.
type report struct {
	stamp  stamp
	order  []string
	result result
}

func (r *report) set(name string, value float64, unit string) {
	if r.result.Metrics == nil {
		r.result.Metrics = make(map[string]metric)
	}
	if _, dup := r.result.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.result.Metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) print(f *os.File) {
	stampLine, _ := json.Marshal(map[string]any{"stamp": r.stamp})
	fmt.Fprintln(f, string(stampLine))
	for _, n := range r.order {
		m := r.result.Metrics[n]
		fmt.Fprintf(f, "%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	if r.stamp.Unresolved {
		fmt.Fprintln(f, "result_latency_* unresolved: the paced phase's backlog kept growing")
	}
	fmt.Fprintf(f, "failed_op_frac %g (%d of %d operations)\n", float64(r.result.Failed)/float64(max(1, r.result.Attempted)), r.result.Failed, r.result.Attempted)
	line, _ := json.Marshal(r.result)
	fmt.Fprintln(f, string(line))
}

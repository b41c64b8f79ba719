package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Schema identifies the BENCH_*.json wire format shared by every
// recorded experiment.
const Schema = "ita-bench/v3"

// Env is the hardware context of a record: parallel results mean
// nothing without it.
type Env struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

// Cell is one measured configuration: string labels name it (the mode,
// phase or sweep value that distinguishes it from its neighbours) and
// metrics hold what was measured. A boolean outcome is a metric of 0
// or 1; a metric that does not apply to the cell is absent.
type Cell struct {
	Labels  map[string]string  `json:"labels"`
	Metrics map[string]float64 `json:"metrics"`
}

// Record is the outcome of one BENCH experiment: the workload it ran
// (Params), the hardware it ran on (Env), one Cell per configuration
// measured, optional record-level Summary metrics, and optionally an
// earlier record of the same sweep embedded as Baseline.
type Record struct {
	Schema     string             `json:"schema"`
	Experiment string             `json:"experiment"`
	Env        Env                `json:"env"`
	Params     map[string]any     `json:"params"`
	Cells      []Cell             `json:"cells"`
	Summary    map[string]float64 `json:"summary,omitempty"`
	Baseline   *Record            `json:"baseline,omitempty"`
}

func newRecord(experiment string, params map[string]any) Record {
	return Record{
		Schema:     Schema,
		Experiment: experiment,
		Env:        Env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()},
		Params:     params,
	}
}

// Validate checks a record's structure: schema and experiment named,
// hardware context present, at least one cell, no two cells with the
// same labels, and every metric finite. An embedded baseline must pass
// the same checks.
func (r Record) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("record: schema %q, want %q", r.Schema, Schema)
	}
	if r.Experiment == "" {
		return errors.New("record: no experiment name")
	}
	if r.Env.GOMAXPROCS <= 0 || r.Env.NumCPU <= 0 {
		return fmt.Errorf("record %s: missing hardware context %+v", r.Experiment, r.Env)
	}
	if len(r.Cells) == 0 {
		return fmt.Errorf("record %s: no cells", r.Experiment)
	}
	seen := make(map[string]bool, len(r.Cells))
	for _, c := range r.Cells {
		key := labelKey(c.Labels)
		if seen[key] {
			return fmt.Errorf("record %s: two cells labelled {%s}", r.Experiment, key)
		}
		seen[key] = true
		if err := finite(c.Metrics); err != nil {
			return fmt.Errorf("record %s: cell {%s}: %w", r.Experiment, key, err)
		}
	}
	if err := finite(r.Summary); err != nil {
		return fmt.Errorf("record %s: summary: %w", r.Experiment, err)
	}
	if r.Baseline != nil {
		if err := r.Baseline.Validate(); err != nil {
			return fmt.Errorf("record %s: baseline: %w", r.Experiment, err)
		}
	}
	return nil
}

func finite(m map[string]float64) error {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", k, v)
		}
	}
	return nil
}

// labelKey renders labels as sorted k=v pairs: equal label sets give
// equal keys.
func labelKey(labels map[string]string) string {
	keys := sortedKeys(labels)
	for i, k := range keys {
		keys[i] = k + "=" + labels[k]
	}
	return strings.Join(keys, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// AttachBaseline embeds base, keeping base's own baseline so successive
// generations chain, and returns the two records' cells at the largest
// value of the numeric sweepLabel that both sweeps measured; ok is
// false when they share none.
func (r *Record) AttachBaseline(base Record, sweepLabel string) (cur, old Cell, ok bool) {
	r.Baseline = &base
	best := math.Inf(-1)
	for _, c := range r.Cells {
		x, err := strconv.ParseFloat(c.Labels[sweepLabel], 64)
		if err != nil || x <= best {
			continue
		}
		for _, b := range base.Cells {
			if b.Labels[sweepLabel] == c.Labels[sweepLabel] {
				cur, old, ok, best = c, b, true, x
				break
			}
		}
	}
	return cur, old, ok
}

// Format renders the record as text: a header with the experiment, env
// and params, one aligned row per cell (labels, then metrics, each in
// name order; "-" where a cell lacks a metric), the summary, and any
// baseline chain below it.
func (r Record) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — gomaxprocs=%d num_cpu=%d\n", r.Experiment, r.Env.GOMAXPROCS, r.Env.NumCPU)
	if params, err := json.Marshal(r.Params); err == nil {
		fmt.Fprintf(&b, "params %s\n", params)
	}
	labels, metrics := map[string]bool{}, map[string]bool{}
	for _, c := range r.Cells {
		for k := range c.Labels {
			labels[k] = true
		}
		for k := range c.Metrics {
			metrics[k] = true
		}
	}
	lk, mk := sortedKeys(labels), sortedKeys(metrics)
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "%s\t%s\t\n", strings.Join(lk, "\t"), strings.Join(mk, "\t"))
	for _, c := range r.Cells {
		row := make([]string, 0, len(lk)+len(mk))
		for _, k := range lk {
			v, ok := c.Labels[k]
			if !ok {
				v = "-"
			}
			row = append(row, v)
		}
		for _, k := range mk {
			v, ok := c.Metrics[k]
			s := "-"
			if ok {
				s = formatMetric(v)
			}
			row = append(row, s)
		}
		fmt.Fprintf(tw, "%s\t\n", strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, k := range sortedKeys(r.Summary) {
		fmt.Fprintf(&b, "%s: %s\n", k, formatMetric(r.Summary[k]))
	}
	if r.Baseline != nil {
		b.WriteString("baseline: ")
		b.WriteString(r.Baseline.Format())
	}
	return b.String()
}

// formatMetric prints counts whole and rates to a readable precision.
func formatMetric(v float64) string {
	switch a := math.Abs(v); {
	case v == math.Trunc(v) && a < 1e15:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case a >= 100:
		return strconv.FormatFloat(v, 'f', 1, 64)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}

// JSON renders the record for BENCH_*.json files.
func (r Record) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

package harness

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"ita/internal/corpus"
	"ita/internal/window"
)

// tinyProfile keeps harness tests fast: small dictionary (alias-table
// construction dominates otherwise), few queries, short measurement.
func tinyProfile() Profile {
	return Profile{
		Label:       "test",
		Queries:     20,
		K:           5,
		MeasureDocs: 60,
		MaxMeasure:  5 * time.Second,
		MaxSetup:    10 * time.Second,
		MaxWindow:   200,
		Rate:        200,
		DictSize:    2000,
	}
}

func tinySpec(p Profile) Spec {
	s := p.spec(window.Count{N: 100}, 4, 100)
	return s
}

func TestRunProducesMeasurement(t *testing.T) {
	p := tinyProfile()
	m, err := Run(ITABuilder(), tinySpec(p))
	if err != nil {
		t.Fatal(err)
	}
	if m.Infeasible {
		t.Fatal("tiny spec infeasible")
	}
	if m.Events != p.MeasureDocs {
		t.Fatalf("events = %d, want %d", m.Events, p.MeasureDocs)
	}
	if m.MeanMs < 0 || m.P95Ms < m.P50Ms || m.MaxMs < m.P95Ms {
		t.Fatalf("inconsistent percentiles: %+v", m)
	}
	// Queue latency includes service time, so it can never undercut it.
	if m.QueueMeanMs < m.MeanMs-1e-9 || m.QueueMaxMs < m.QueueP95Ms-1e-9 {
		t.Fatalf("inconsistent queue latencies: %+v", m)
	}
	// Stats cover only the measured window, not warm-up.
	if m.Stats.Arrivals != uint64(p.MeasureDocs) {
		t.Fatalf("arrivals = %d, want %d", m.Stats.Arrivals, p.MeasureDocs)
	}
}

func TestRunNaive(t *testing.T) {
	p := tinyProfile()
	m, err := Run(NaiveBuilder(), tinySpec(p))
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.ScoreComputations == 0 {
		t.Fatal("naive should score every arrival")
	}
}

func TestRunRespectsSetupBudget(t *testing.T) {
	p := tinyProfile()
	s := tinySpec(p)
	s.WarmDocs = 1 << 30 // absurd warm-up
	s.MaxSetup = 50 * time.Millisecond
	m, err := Run(ITABuilder(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Infeasible {
		t.Fatal("expected infeasible measurement")
	}
}

func TestFigureSweepAndFormat(t *testing.T) {
	p := tinyProfile()
	p.MeasureDocs = 30
	fig := sweep("t", "Test figure", "n",
		[]EngineBuilder{NaiveBuilder(), ITABuilder()},
		[]float64{2, 4},
		func(x float64) string { return "n" + string(rune('0'+int(x))) },
		func(x float64) Spec { return p.spec(window.Count{N: 50}, int(x), 50) },
		nil)
	if fig.Err != nil {
		t.Fatal(fig.Err)
	}
	if len(fig.Points) != 2 || len(fig.Points[0].M) != 2 {
		t.Fatalf("sweep shape wrong: %+v", fig)
	}
	out := fig.Format()
	for _, want := range []string{"Test figure", "Naive ms", "ITA ms", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
	csv := fig.CSV()
	if !strings.Contains(csv, "Naive_mean_ms") || len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Fatalf("CSV malformed:\n%s", csv)
	}
}

func TestITABeatsNaiveOnPaperShapedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	// A scaled-down Fig 3(a) point: ITA's mean event cost must be lower
	// than Naïve's. This is the paper's core claim; the margin is
	// asserted loosely (>1.5×) to stay robust on slow CI machines.
	p := Profile{
		Label:       "shape",
		Queries:     200,
		K:           10,
		MeasureDocs: 400,
		MaxMeasure:  30 * time.Second,
		MaxSetup:    60 * time.Second,
		MaxWindow:   1000,
		Rate:        200,
		DictSize:    50000,
	}
	spec := p.spec(window.Count{N: 1000}, 10, 1000)
	naive, err := Run(NaiveBuilder(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ita, err := Run(ITABuilder(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if ita.MeanMs*1.5 > naive.MeanMs {
		t.Fatalf("ITA %.4fms vs Naive %.4fms: expected ≥1.5x speedup", ita.MeanMs, naive.MeanMs)
	}
	t.Logf("ITA %.4f ms, Naive %.4f ms, speedup %.1fx", ita.MeanMs, naive.MeanMs, naive.MeanMs/ita.MeanMs)
}

func TestSetupReport(t *testing.T) {
	p := tinyProfile()
	r, err := Setup(p, 200)
	if err != nil {
		t.Fatal(err)
	}
	if r.SampleDocs != 200 || r.DictSize != p.DictSize {
		t.Fatalf("report = %+v", r)
	}
	if r.MeanTerms <= 0 || r.MeanTokens < r.MeanTerms {
		t.Fatalf("implausible term stats: %+v", r)
	}
	if r.HeadTermShare <= 0 || r.HeadTermShare >= 1 {
		t.Fatalf("head share = %f", r.HeadTermShare)
	}
	out := r.Format()
	if !strings.Contains(out, "dictionary size") {
		t.Fatalf("Format output: %s", out)
	}
}

func TestSetupCorpusCalibration(t *testing.T) {
	// E0 at full scale: the real dictionary size and the WSJ-like
	// document length band. Uses a moderate sample to bound runtime.
	if testing.Short() {
		t.Skip("full-dictionary calibration skipped in -short mode")
	}
	cfg := corpus.WSJConfig()
	if cfg.DictSize != 181978 {
		t.Fatalf("dictionary size %d, want the paper's 181,978", cfg.DictSize)
	}
	p := PaperProfile()
	r, err := Setup(p, 500)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanTerms < 120 || r.MeanTerms > 240 {
		t.Fatalf("mean distinct terms %f outside WSJ-like band", r.MeanTerms)
	}
}

func TestQuickProfileFiguresRun(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test skipped in -short mode")
	}
	p := tinyProfile()
	p.MeasureDocs = 20
	fig := Headline(p, nil)
	if fig.Err != nil {
		t.Fatal(fig.Err)
	}
	if len(fig.Points) != 1 || len(fig.Points[0].M) != 3 {
		t.Fatalf("headline shape: %+v", fig.Points)
	}
}

// TestReadWriteSmoke runs a tiny mixed read/write cell pair and sanity
// checks the record's shape: both modes measured, reads recorded, and
// the latency distribution populated.
func TestReadWriteSmoke(t *testing.T) {
	rec, err := ReadWrite(QuickProfile(), 50, 4, 100, 16, []int{2}, 60*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Cells) != 2 {
		t.Fatalf("cells = %d, want locked+published", len(rec.Cells))
	}
	for _, c := range rec.Cells {
		m := c.Metrics
		if m["reads"] <= 0 || m["reads_per_sec"] <= 0 {
			t.Fatalf("%v: no reads measured: %v", c.Labels, m)
		}
		if m["write_events"] <= 0 {
			t.Fatalf("%v: no writes measured: %v", c.Labels, m)
		}
		if m["max_read_us"] < m["p50_read_us"] {
			t.Fatalf("%v: latency distribution inverted: %v", c.Labels, m)
		}
	}
	if rec.Cells[0].Labels["mode"] != "locked" || rec.Cells[1].Labels["mode"] != "published" {
		t.Fatalf("mode order: %v, %v", rec.Cells[0].Labels, rec.Cells[1].Labels)
	}
	if rec.Cells[1].Metrics["speedup_vs_locked"] <= 0 {
		t.Fatalf("speedup not computed: %v", rec.Cells[1].Metrics)
	}
}

// TestBenchRecordsRoundTrip runs every BENCH experiment at a tiny size
// and checks that what it emits is a valid record that survives the
// JSON round trip a BENCH_*.json file takes, and that every sharding
// sweep builds each distinct shard count once, with one shard first.
func TestBenchRecordsRoundTrip(t *testing.T) {
	p := tinyProfile()
	p.MaxMeasure = time.Second
	run := map[string]func() (Record, error){
		"throughput": func() (Record, error) { return Throughput(p, 20, 4, 50, []int{1, 2, 2}, 20, nil) },
		"batch":      func() (Record, error) { return BatchSweep(p, 20, 4, 50, []int{1, 8}, []int{2, 1}, 24, nil) },
		"reads": func() (Record, error) {
			return ReadWrite(p, 20, 4, 50, 8, []int{1}, 20*time.Millisecond, nil)
		},
		"recovery": func() (Record, error) { return Recovery(p, 20, 4, 50, 8, []int{0, 2}, 48, nil) },
		"scale":    func() (Record, error) { return Scale(p, []int{20, 40}, 4, 50, 20, "test", nil, nil) },
		"window":   func() (Record, error) { return WindowSweep(p, []int{50, 100}, 4, nil) },
		"failover": func() (Record, error) { return Failover(p, 20, 4, 50, 8, []int{1, 2}, 48, nil) },
		"cluster":  func() (Record, error) { return Cluster(p, 20, 4, 50, 8, []int{1, 2}, 48, nil) },
	}
	for name, f := range run {
		t.Run(name, func(t *testing.T) {
			rec, err := f()
			if err != nil {
				t.Fatal(err)
			}
			if rec.Experiment != name {
				t.Fatalf("experiment %q, want %q", rec.Experiment, name)
			}
			data, err := rec.JSON()
			if err != nil {
				t.Fatal(err)
			}
			var back Record
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if err := back.Validate(); err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(back.Format(), name+" — ") {
				t.Fatalf("Format header:\n%s", back.Format())
			}
			if name == "throughput" || name == "batch" {
				var shards []string
				for _, c := range back.Cells {
					if len(shards) == 0 || shards[len(shards)-1] != c.Labels["shards"] {
						shards = append(shards, c.Labels["shards"])
					}
				}
				if strings.Join(shards, ",") != "1,2" {
					t.Fatalf("shard sweep %v, want each distinct count once: 1,2", shards)
				}
			}
		})
	}
}

func TestRecordValidateRejects(t *testing.T) {
	good := func() Record {
		r := newRecord("x", nil)
		r.Cells = []Cell{
			{Labels: map[string]string{"n": "1"}, Metrics: map[string]float64{"v": 1}},
			{Labels: map[string]string{"n": "2"}, Metrics: map[string]float64{"v": 2}},
		}
		return r
	}
	if err := good().Validate(); err != nil {
		t.Fatal(err)
	}
	for name, spoil := range map[string]func(*Record){
		"no env":         func(r *Record) { r.Env = Env{} },
		"no cells":       func(r *Record) { r.Cells = nil },
		"duplicate cell": func(r *Record) { r.Cells[1].Labels["n"] = "1" },
		"NaN metric":     func(r *Record) { r.Cells[0].Metrics["v"] = math.NaN() },
		"infinite summary": func(r *Record) {
			r.Summary = map[string]float64{"s": math.Inf(1)}
		},
		"bad baseline": func(r *Record) { r.Baseline = &Record{Schema: Schema, Experiment: "x"} },
	} {
		r := good()
		spoil(&r)
		if r.Validate() == nil {
			t.Errorf("%s: Validate accepted %+v", name, r)
		}
	}
}

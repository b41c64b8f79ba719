package harness

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"ita/internal/corpus"
	"ita/internal/invindex"
	"ita/internal/model"
	"ita/internal/shard"
	"ita/internal/stream"
	"ita/internal/vsm"
	"ita/internal/window"
)

// WindowSchema identifies the BENCH_WINDOW.json wire format.
const WindowSchema = "ita-bench-window/v1"

// WindowPoint is one window size of the posting-layout experiment: the
// inverted index's storage bill at that window and the read-side price
// of the layout (a cold registration is one full threshold search —
// the same list iteration the refill/probe path replays — so its
// latency is the probe cost of the layout made measurable).
type WindowPoint struct {
	Window          int     `json:"window"`
	Postings        uint64  `json:"postings"`
	PostingBytes    uint64  `json:"posting_bytes"`
	BytesPerPosting float64 `json:"bytes_per_posting"`
	IngestPerSec    float64 `json:"ingest_events_per_sec"`
	RegisterPerSec  float64 `json:"register_per_sec"`
	ProbeLatencyUs  float64 `json:"probe_latency_us"`
}

// WindowReport is the outcome of the window-scale experiment for one
// posting layout: bytes per posting and cold-search latency swept
// across window sizes spanning two orders of magnitude. The slice
// layout's report over the same sweep embeds as Baseline, and the two
// headline ratios compare the layouts at the largest window the sweeps
// share — the point the compressed layout exists for.
type WindowReport struct {
	Schema     string        `json:"schema"`
	Layout     string        `json:"layout"`
	Queries    int           `json:"queries"`
	QueryLen   int           `json:"query_len"`
	K          int           `json:"k"`
	DictSize   int           `json:"dict_size"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Points     []WindowPoint `json:"points"`
	Baseline   *WindowReport `json:"baseline,omitempty"`
	// BytesReductionPct is the bytes-per-posting saving against the
	// baseline at the largest shared window (100·(1 − blocked/slices)).
	BytesReductionPct float64 `json:"bytes_per_posting_reduction_pct,omitempty"`
	// ProbeLatencyRatio is this layout's cold-search latency over the
	// baseline's at the largest shared window; at or below 1.0 the
	// compression is free on the read path.
	ProbeLatencyRatio float64 `json:"probe_latency_ratio,omitempty"`
}

// WindowSweep measures both posting layouts at every window size in
// wins and returns the blocked layout's report with the slice layout's
// embedded as baseline. Each cell bulk-builds the window through the
// epoch pipeline (the path that leaves blocked lists fully packed),
// reads the posting-storage gauges, and then times cold registrations
// over the built window.
func WindowSweep(p Profile, wins []int, queryLen int, progress func(string)) (WindowReport, error) {
	blocked, err := windowReport(p, wins, queryLen, invindex.LayoutBlocked, progress)
	if err != nil {
		return blocked, err
	}
	slices, err := windowReport(p, wins, queryLen, invindex.LayoutSlices, progress)
	if err != nil {
		return blocked, err
	}
	blocked.AttachBaseline(slices)
	return blocked, nil
}

func windowReport(p Profile, wins []int, queryLen int, lay invindex.Layout, progress func(string)) (WindowReport, error) {
	cfg := p.corpusCfg()
	rep := WindowReport{
		Schema:     WindowSchema,
		Layout:     lay.String(),
		Queries:    p.Queries,
		QueryLen:   queryLen,
		K:          p.K,
		DictSize:   cfg.DictSize,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, win := range wins {
		if progress != nil {
			progress(fmt.Sprintf("window: %s layout, N=%d", lay, win))
		}
		pt, err := windowPoint(p, win, queryLen, lay)
		if err != nil {
			return rep, err
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// windowEpoch is the bulk-build batch size; large enough that every
// Zipf-head list crosses the merge-rebuild cutoff each epoch.
const windowEpoch = 512

func windowPoint(p Profile, win, queryLen int, lay invindex.Layout) (WindowPoint, error) {
	pt := WindowPoint{Window: win}
	cfg := p.corpusCfg()
	qSynth, err := corpus.NewSynth(withSeed(cfg, 7777), vsm.Cosine{})
	if err != nil {
		return pt, err
	}
	dSynth, err := corpus.NewSynth(cfg, vsm.Cosine{})
	if err != nil {
		return pt, err
	}
	str := stream.New(dSynth.Document, p.Rate, cfg.Seed+1, time.Unix(0, 0))
	eng := shard.New(window.Count{N: win}, 1, shard.WithPostingLayout(lay))

	ingestStart := time.Now()
	epoch := make([]*model.Document, 0, windowEpoch)
	for done := 0; done < win; {
		epoch = epoch[:0]
		for len(epoch) < windowEpoch && done < win {
			epoch = append(epoch, str.Next())
			done++
		}
		if err := eng.ProcessEpoch(epoch); err != nil {
			return pt, err
		}
	}
	pt.IngestPerSec = float64(win) / time.Since(ingestStart).Seconds()

	mem := eng.MemoryUsage()
	pt.Postings = mem.Postings
	pt.PostingBytes = mem.PostingBytes
	if mem.Postings > 0 {
		pt.BytesPerPosting = float64(mem.PostingBytes) / float64(mem.Postings)
	}

	// Cold registrations, best of three reps: every rep registers a
	// fresh batch of queries (each runs one full threshold search over
	// the built lists) and unregisters them again so the next rep starts
	// cold too. The fastest rep rejects transient interference the same
	// way the scale experiment's ingest measurement does.
	best := 0.0
	id := model.QueryID(1)
	for rep := 0; rep < 3; rep++ {
		queries := make([]*model.Query, p.Queries)
		for i := range queries {
			queries[i] = qSynth.Query(id, p.K, queryLen)
			id++
		}
		regStart := time.Now()
		for _, q := range queries {
			if err := eng.Register(q); err != nil {
				return pt, err
			}
		}
		wall := time.Since(regStart)
		for _, q := range queries {
			eng.Unregister(q.ID)
		}
		if r := float64(len(queries)) / wall.Seconds(); r > best {
			best = r
		}
		if p.MaxMeasure > 0 && time.Since(ingestStart) > p.MaxMeasure {
			break
		}
	}
	pt.RegisterPerSec = best
	if best > 0 {
		pt.ProbeLatencyUs = 1e6 / best
	}
	return pt, nil
}

// AttachBaseline embeds the other layout's report and computes the
// headline ratios at the largest window both sweeps share.
func (r *WindowReport) AttachBaseline(base WindowReport) {
	b := base
	r.Baseline = &b
	var cur, old *WindowPoint
	for i := range r.Points {
		for j := range b.Points {
			if r.Points[i].Window == b.Points[j].Window &&
				(cur == nil || r.Points[i].Window > cur.Window) {
				cur, old = &r.Points[i], &b.Points[j]
			}
		}
	}
	if cur == nil {
		return
	}
	if old.BytesPerPosting > 0 {
		r.BytesReductionPct = 100 * (1 - cur.BytesPerPosting/old.BytesPerPosting)
	}
	if old.ProbeLatencyUs > 0 {
		r.ProbeLatencyRatio = cur.ProbeLatencyUs / old.ProbeLatencyUs
	}
}

// Format renders the report as an aligned text table.
func (r WindowReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "window — layout %s, %d queries × %d terms, k=%d, dict %d\n",
		r.Layout, r.Queries, r.QueryLen, r.K, r.DictSize)
	header := func() {
		fmt.Fprintf(&b, "%-10s%14s%18s%14s%16s\n", "window", "postings", "bytes/posting", "ingest ev/s", "probe µs")
	}
	row := func(pt WindowPoint) {
		fmt.Fprintf(&b, "%-10d%14d%18.2f%14.0f%16.2f\n",
			pt.Window, pt.Postings, pt.BytesPerPosting, pt.IngestPerSec, pt.ProbeLatencyUs)
	}
	header()
	for _, pt := range r.Points {
		row(pt)
	}
	if r.Baseline != nil {
		fmt.Fprintf(&b, "baseline — layout %s\n", r.Baseline.Layout)
		header()
		for _, pt := range r.Baseline.Points {
			row(pt)
		}
		fmt.Fprintf(&b, "bytes/posting reduction at largest shared window: %.1f%%\n", r.BytesReductionPct)
		fmt.Fprintf(&b, "probe latency ratio at largest shared window: %.2f\n", r.ProbeLatencyRatio)
	}
	return b.String()
}

// JSON renders the report for BENCH_WINDOW.json.
func (r WindowReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

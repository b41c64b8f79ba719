package harness

import (
	"fmt"
	"strconv"
	"time"

	"ita/internal/corpus"
	"ita/internal/invindex"
	"ita/internal/model"
	"ita/internal/shard"
	"ita/internal/stream"
	"ita/internal/vsm"
	"ita/internal/window"
)

// WindowSweep measures both posting layouts at every window size in
// wins and returns the blocked layout's record with the slice layout's
// embedded as baseline. Each cell bulk-builds the window through the
// epoch pipeline (the path that leaves blocked lists fully packed),
// reads the posting-storage gauges, and then times cold registrations
// over the built window: a cold registration is one full threshold
// search, the same list iteration the refill/probe path replays, so
// its latency is the probe cost of the layout made measurable. The
// summary compares the layouts at the largest window both sweeps
// share, the point the compressed layout exists for:
// bytes_per_posting_reduction_pct is 100·(1 − blocked/slices), and
// probe_latency_ratio is the blocked layout's cold-search latency over
// the slice layout's (at or below 1.0 the compression is free on the
// read path).
func WindowSweep(p Profile, wins []int, queryLen int, progress func(string)) (Record, error) {
	blocked, err := windowRecord(p, wins, queryLen, invindex.LayoutBlocked, progress)
	if err != nil {
		return blocked, err
	}
	slices, err := windowRecord(p, wins, queryLen, invindex.LayoutSlices, progress)
	if err != nil {
		return blocked, err
	}
	cur, old, ok := blocked.AttachBaseline(slices, "window")
	if !ok {
		return blocked, nil
	}
	blocked.Summary = map[string]float64{}
	if b := old.Metrics["bytes_per_posting"]; b > 0 {
		blocked.Summary["bytes_per_posting_reduction_pct"] = 100 * (1 - cur.Metrics["bytes_per_posting"]/b)
	}
	if l := old.Metrics["probe_latency_us"]; l > 0 {
		blocked.Summary["probe_latency_ratio"] = cur.Metrics["probe_latency_us"] / l
	}
	return blocked, nil
}

func windowRecord(p Profile, wins []int, queryLen int, lay invindex.Layout, progress func(string)) (Record, error) {
	cfg := p.corpusCfg()
	rec := newRecord("window", map[string]any{
		"layout": lay.String(), "queries": p.Queries, "query_len": queryLen, "k": p.K, "dict_size": cfg.DictSize,
	})
	for _, win := range wins {
		if progress != nil {
			progress(fmt.Sprintf("window: %s layout, N=%d", lay, win))
		}
		c, err := windowCell(p, win, queryLen, lay)
		if err != nil {
			return rec, err
		}
		rec.Cells = append(rec.Cells, c)
	}
	return rec, nil
}

// windowEpoch is the bulk-build batch size; large enough that every
// Zipf-head list crosses the merge-rebuild cutoff each epoch.
const windowEpoch = 512

func windowCell(p Profile, win, queryLen int, lay invindex.Layout) (Cell, error) {
	cfg := p.corpusCfg()
	qSynth, err := corpus.NewSynth(withSeed(cfg, 7777), vsm.Cosine{})
	if err != nil {
		return Cell{}, err
	}
	dSynth, err := corpus.NewSynth(cfg, vsm.Cosine{})
	if err != nil {
		return Cell{}, err
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
			return Cell{}, err
		}
	}
	ingestRate := float64(win) / time.Since(ingestStart).Seconds()
	mem := eng.MemoryUsage()
	c := Cell{
		Labels: map[string]string{"window": strconv.Itoa(win)},
		Metrics: map[string]float64{
			"ingest_events_per_sec": ingestRate,
			"postings":              float64(mem.Postings),
			"posting_bytes":         float64(mem.PostingBytes),
			"bytes_per_posting":     0,
			"probe_latency_us":      0,
		},
	}
	if mem.Postings > 0 {
		c.Metrics["bytes_per_posting"] = float64(mem.PostingBytes) / float64(mem.Postings)
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
				return Cell{}, err
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
	c.Metrics["register_per_sec"] = best
	if best > 0 {
		c.Metrics["probe_latency_us"] = 1e6 / best
	}
	return c, nil
}

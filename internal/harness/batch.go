package harness

import (
	"fmt"
	"strconv"
	"time"

	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/shard"
	"ita/internal/window"
)

// BatchSweep measures steady-state event throughput at every epoch size
// in epochSizes, once per distinct shard count (the one-shard engine
// first, then every other count in shardCounts), all on the same
// synthetic workload of `queries` standing queries over a count window
// of `win` documents. Events are fed through ProcessEpoch in chunks of
// the epoch size (chunks of one go through Process, i.e. B=1 is the
// event-serial baseline). Larger epochs amortize index mutation,
// affected-query probing and (with several shards) the fan-out barrier
// across the batch; speedup_vs_b1 isolates that amortization from
// parallelism, and refills and index_ops explain it.
func BatchSweep(p Profile, queries, queryLen, win int, epochSizes, shardCounts []int, events int, progress func(string)) (Record, error) {
	cfg := p.corpusCfg()
	rec := newRecord("batch", map[string]any{
		"queries": queries, "query_len": queryLen, "k": p.K, "window": win, "dict_size": cfg.DictSize,
	})
	pol := window.Count{N: win}
	for _, s := range distinctShards(pol, shardCounts) {
		first := len(rec.Cells)
		b1 := 0.0
		for _, b := range epochSizes {
			if progress != nil {
				progress(fmt.Sprintf("batch sweep: %d shard(s) B=%d (%d queries)", s, b, queries))
			}
			eng := shard.New(pol, s)
			c, err := batchCell(p, cfg, eng, queries, queryLen, win, b, events)
			eng.Close()
			if err != nil {
				return rec, err
			}
			c.Labels = map[string]string{"shards": strconv.Itoa(s), "epoch_size": strconv.Itoa(b)}
			if b == 1 {
				b1 = c.Metrics["events_per_sec"]
			}
			rec.Cells = append(rec.Cells, c)
		}
		// Normalize against this shard count's B=1 cell wherever it
		// appears in the sweep; without one the ratio is undefined and
		// the metric stays 0.
		for _, c := range rec.Cells[first:] {
			c.Metrics["speedup_vs_b1"] = 0
			if b1 > 0 {
				c.Metrics["speedup_vs_b1"] = c.Metrics["events_per_sec"] / b1
			}
		}
	}
	return rec, nil
}

func batchCell(p Profile, cfg corpus.SynthConfig, eng *shard.Engine, queries, queryLen, win, epochSize, events int) (Cell, error) {
	str, err := primed(p, cfg, eng, queries, queryLen, win)
	if err != nil {
		return Cell{}, err
	}
	// Pre-generate the measured stream so document synthesis stays out
	// of the timed loop — the sweep compares engine cost, not corpus
	// generation.
	docs := make([]*model.Document, events)
	for i := range docs {
		docs[i] = str.Next()
	}
	before := *eng.Stats()
	done := 0
	start := time.Now()
	for done < events {
		n := min(epochSize, events-done)
		var err error
		if n > 1 {
			err = eng.ProcessEpoch(docs[done : done+n])
		} else {
			err = eng.Process(docs[done])
		}
		if err != nil {
			return Cell{}, err
		}
		done += n
		if p.MaxMeasure > 0 && time.Since(start) > p.MaxMeasure {
			break
		}
	}
	wall := time.Since(start)
	delta := *eng.Stats()
	delta.Sub(&before)
	return Cell{Metrics: map[string]float64{
		"events":         float64(done),
		"events_per_sec": float64(done) / wall.Seconds(),
		"mean_ms":        float64(wall.Nanoseconds()) / 1e6 / float64(done),
		"wall_ms":        float64(wall.Nanoseconds()) / 1e6,
		"refills":        float64(delta.Refills),
		"index_ops":      float64(delta.IndexInserts + delta.IndexDeletes),
	}}, nil
}

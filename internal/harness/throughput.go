package harness

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/shard"
	"ita/internal/stream"
	"ita/internal/vsm"
	"ita/internal/window"
)

// Throughput measures steady-state event throughput (arrival +
// expiration + all query maintenance) on a workload of `queries`
// standing queries over a count window of `win` documents, once per
// distinct shard count: the one-shard baseline cell first, then every
// other count in shardCounts. Events are fed one at a time through
// Process. The record carries the hardware context because the win of
// more shards is parallelism: with GOMAXPROCS=1 the fan-out can only
// add overhead.
func Throughput(p Profile, queries, queryLen, win int, shardCounts []int, events int, progress func(string)) (Record, error) {
	cfg := p.corpusCfg()
	rec := newRecord("throughput", map[string]any{
		"queries": queries, "query_len": queryLen, "k": p.K, "window": win, "dict_size": cfg.DictSize,
	})
	pol := window.Count{N: win}
	for _, s := range distinctShards(pol, shardCounts) {
		if progress != nil {
			progress(fmt.Sprintf("throughput: %d shard(s) (%d queries)", s, queries))
		}
		eng := shard.New(pol, s)
		c, err := throughputCell(p, cfg, eng, queries, queryLen, win, events)
		eng.Close()
		if err != nil {
			return rec, err
		}
		c.Labels = map[string]string{"shards": strconv.Itoa(s)}
		c.Metrics["speedup_vs_single"] = 1
		if len(rec.Cells) > 0 && rec.Cells[0].Metrics["events_per_sec"] > 0 {
			c.Metrics["speedup_vs_single"] = c.Metrics["events_per_sec"] / rec.Cells[0].Metrics["events_per_sec"]
		}
		rec.Cells = append(rec.Cells, c)
	}
	return rec, nil
}

// distinctShards resolves every shard count the way shard.New does (0
// = automatic) and returns each distinct count once, led by 1: the
// one-shard engine is the baseline cell of every sharding sweep.
func distinctShards(pol window.Policy, counts []int) []int {
	out := []int{1}
	for _, s := range counts {
		eng := shard.New(pol, s)
		n := eng.Shards()
		eng.Close()
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// primed fills eng's count window of win documents and registers
// `queries` standing queries, the steady state the sharding sweeps
// measure from, and returns the stream to continue from.
func primed(p Profile, cfg corpus.SynthConfig, eng *shard.Engine, queries, queryLen, win int) (*stream.Stream, error) {
	qSynth, err := corpus.NewSynth(withSeed(cfg, 7777), vsm.Cosine{})
	if err != nil {
		return nil, err
	}
	dSynth, err := corpus.NewSynth(cfg, vsm.Cosine{})
	if err != nil {
		return nil, err
	}
	str := stream.New(dSynth.Document, p.Rate, cfg.Seed+1, time.Unix(0, 0))
	for i := 0; i < win; i++ {
		if err := eng.Process(str.Next()); err != nil {
			return nil, err
		}
	}
	for i := 0; i < queries; i++ {
		if err := eng.Register(qSynth.Query(model.QueryID(i+1), p.K, queryLen)); err != nil {
			return nil, err
		}
	}
	return str, nil
}

func throughputCell(p Profile, cfg corpus.SynthConfig, eng *shard.Engine, queries, queryLen, win, events int) (Cell, error) {
	str, err := primed(p, cfg, eng, queries, queryLen, win)
	if err != nil {
		return Cell{}, err
	}
	done := 0
	start := time.Now()
	for done < events {
		if err := eng.Process(str.Next()); err != nil {
			return Cell{}, err
		}
		done++
		if p.MaxMeasure > 0 && time.Since(start) > p.MaxMeasure {
			break
		}
	}
	wall := time.Since(start)
	return Cell{Metrics: map[string]float64{
		"events":         float64(done),
		"events_per_sec": float64(done) / wall.Seconds(),
		"mean_ms":        float64(wall.Nanoseconds()) / 1e6 / float64(done),
		"wall_ms":        float64(wall.Nanoseconds()) / 1e6,
	}}, nil
}

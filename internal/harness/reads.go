package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ita"
)

// readsText builds deterministic synthetic texts: uniform draws over a
// compact vocabulary, wide enough that top-k sets are contested but
// every query matches something.
func readsText(rnd *rand.Rand, dict, words int) string {
	var sb strings.Builder
	for i := 0; i < words; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "term%d", rnd.Intn(dict))
	}
	return sb.String()
}

// ReadWrite measures sustained read throughput under concurrent epoch
// ingestion: for every mode × readerCount cell, R reader goroutines
// call Results on random queries as fast as they can while one writer
// drives IngestBatch epochs of `batch` documents, for `dur` of wall
// time. Reads on the published path are wait-free; the locked baseline
// serializes reads and writes on a single mutex, reproducing the
// pre-published-view facade. Even at GOMAXPROCS=1 the published path
// wins on the latency tail: a locked reader queues behind entire epoch
// ingests (milliseconds) while a published reader never waits.
func ReadWrite(p Profile, queries, queryLen, win, batch int, readerCounts []int, dur time.Duration, progress func(string)) (Record, error) {
	const dict = 2000
	rec := newRecord("reads", map[string]any{
		"queries": queries, "query_len": queryLen, "k": p.K, "window": win, "batch_size": batch,
		"dict_size": dict, "cell_ms": float64(dur.Nanoseconds()) / 1e6,
	})

	// runCell measures one mode: "published" (the wait-free read path:
	// Results loads the published epoch view, never the engine lock) or
	// "locked" (the pre-published-view architecture, emulated by
	// serializing every read and write on one mutex).
	runCell := func(mode string, readers int) (Cell, error) {
		if progress != nil {
			progress(fmt.Sprintf("reads: %s R=%d (%d queries)", mode, readers, queries))
		}
		eng, err := ita.New(ita.WithCountWindow(win), ita.WithBatchSize(batch))
		if err != nil {
			return Cell{}, err
		}
		defer eng.Close()

		// A single mutex emulating the pre-published-view read path: in
		// published mode it is simply never used.
		var lock sync.Mutex
		locked := mode == "locked"

		rnd := rand.New(rand.NewSource(42))
		clock := time.Unix(0, 0)
		warm := make([]ita.TimedText, win)
		for i := range warm {
			clock = clock.Add(time.Millisecond)
			warm[i] = ita.TimedText{Text: readsText(rnd, dict, 12), At: clock}
		}
		if _, err := eng.IngestBatch(warm); err != nil {
			return Cell{}, err
		}
		qids := make([]ita.QueryID, queries)
		qrnd := rand.New(rand.NewSource(7777))
		for i := range qids {
			id, err := eng.Register(readsText(qrnd, dict, queryLen), p.K)
			if err != nil {
				return Cell{}, err
			}
			qids[i] = id
		}

		var stop atomic.Bool
		var wg sync.WaitGroup
		var writeEvents atomic.Int64
		reads := make([]int64, readers)
		lats := make([][]int64, readers) // per-read ns, bounded per reader

		wg.Add(1)
		go func() { // writer: stream epochs as fast as the engine takes them
			defer wg.Done()
			wrnd := rand.New(rand.NewSource(43))
			items := make([]ita.TimedText, batch)
			for !stop.Load() {
				for i := range items {
					clock = clock.Add(time.Millisecond)
					items[i] = ita.TimedText{Text: readsText(wrnd, dict, 12), At: clock}
				}
				if locked {
					lock.Lock()
				}
				_, err := eng.IngestBatch(items)
				if locked {
					lock.Unlock()
				}
				if err != nil {
					panic(err) // non-decreasing clock by construction
				}
				writeEvents.Add(int64(batch))
			}
		}()
		for r := 0; r < readers; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				const maxSamples = 1 << 20
				rrnd := rand.New(rand.NewSource(int64(100 + r)))
				samples := make([]int64, 0, 1<<16)
				var n int64
				for !stop.Load() {
					id := qids[rrnd.Intn(len(qids))]
					t0 := time.Now()
					if locked {
						lock.Lock()
					}
					res := eng.Results(id)
					if locked {
						lock.Unlock()
					}
					if len(samples) < maxSamples {
						samples = append(samples, time.Since(t0).Nanoseconds())
					}
					if res == nil {
						panic("registered query returned nil")
					}
					n++
				}
				reads[r] = n
				lats[r] = samples
			}()
		}

		start := time.Now()
		time.Sleep(dur)
		stop.Store(true)
		wg.Wait()
		wall := time.Since(start)

		total := 0
		for _, n := range reads {
			total += int(n)
		}
		writes := int(writeEvents.Load())
		c := Cell{
			Labels: map[string]string{"mode": mode, "readers": strconv.Itoa(readers)},
			Metrics: map[string]float64{
				"reads":          float64(total),
				"reads_per_sec":  float64(total) / wall.Seconds(),
				"write_events":   float64(writes),
				"writes_per_sec": float64(writes) / wall.Seconds(),
				"mean_read_us":   0,
				"p50_read_us":    0,
				"p99_read_us":    0,
				"max_read_us":    0,
			},
		}
		if total > 0 {
			// Mean wall time per read across all reader goroutines.
			c.Metrics["mean_read_us"] = wall.Seconds() * float64(readers) / float64(total) * 1e6
		}
		var all []int64
		for _, s := range lats {
			all = append(all, s...)
		}
		if len(all) > 0 {
			// The tail is where the architectures separate even on one
			// core: a locked reader queues behind whole epoch ingests.
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			c.Metrics["p50_read_us"] = float64(all[len(all)/2]) / 1e3
			c.Metrics["p99_read_us"] = float64(all[len(all)*99/100]) / 1e3
			c.Metrics["max_read_us"] = float64(all[len(all)-1]) / 1e3
		}
		return c, nil
	}

	// speedup_vs_locked is the published cell's reads/sec over the
	// locked cell's at the same reader count (1 on the locked cells).
	for _, readers := range readerCounts {
		locked, err := runCell("locked", readers)
		if err != nil {
			return rec, err
		}
		locked.Metrics["speedup_vs_locked"] = 1
		pub, err := runCell("published", readers)
		if err != nil {
			return rec, err
		}
		pub.Metrics["speedup_vs_locked"] = 0
		if r := locked.Metrics["reads_per_sec"]; r > 0 {
			pub.Metrics["speedup_vs_locked"] = pub.Metrics["reads_per_sec"] / r
		}
		rec.Cells = append(rec.Cells, locked, pub)
	}
	return rec, nil
}

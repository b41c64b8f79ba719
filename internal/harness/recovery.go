package harness

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ita"
	"ita/internal/wal"
)

// Recovery measures (a) the ingest cost of write-ahead logging at every
// fsync policy against the in-memory engine, and (b) crash-recovery
// time as a function of the checkpoint interval: for each interval the
// same stream runs durably, the engine is dropped without warning, and
// Open is timed cold. Every recovered engine is sanity-checked against
// the crashed one's published results, match for match.
//
// Every cell is labelled with its phase ("overhead" or "recovery") and
// durability mode ("memory" is no WAL at all); recovery cells also with
// checkpoint_every, the boundary interval between automatic checkpoints
// (0 = never: recovery replays the whole log). slowdown_vs_memory is
// the in-memory engine's ingest rate over the cell's.
func Recovery(p Profile, queries, queryLen, win, batch int, intervals []int, events int, progress func(string)) (Record, error) {
	const dict = 2000
	rec := newRecord("recovery", map[string]any{
		"queries": queries, "query_len": queryLen, "k": p.K, "window": win, "batch_size": batch, "events": events,
	})

	// run drives the standard workload (register queries, stream epochs)
	// against a fresh engine and returns ingest throughput.
	run := func(eng *ita.Engine) (float64, error) {
		rnd := rand.New(rand.NewSource(42))
		clock := time.Unix(0, 0)
		qrnd := rand.New(rand.NewSource(7777))
		for i := 0; i < queries; i++ {
			if _, err := eng.Register(readsText(qrnd, dict, queryLen), p.K); err != nil {
				return 0, err
			}
		}
		items := make([]ita.TimedText, batch)
		start := time.Now()
		sent := 0
		for sent < events {
			for i := range items {
				clock = clock.Add(time.Millisecond)
				items[i] = ita.TimedText{Text: readsText(rnd, dict, 12), At: clock}
			}
			if _, err := eng.IngestBatch(items); err != nil {
				return 0, err
			}
			sent += batch
		}
		return float64(sent) / time.Since(start).Seconds(), nil
	}

	tmp, err := os.MkdirTemp("", "ita-recovery-*")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(tmp)

	// Phase 1 — logging overhead per fsync policy, checkpoints off so
	// the cost measured is purely the log writes and syncs.
	var memRate float64
	modes := []struct {
		name string
		d    ita.Durability
	}{{"memory", 0}, {"off", ita.DurabilityOff}, {"epoch", ita.DurabilityEpochSync}, {"always", ita.DurabilityAlways}}
	for i, m := range modes {
		if progress != nil {
			progress(fmt.Sprintf("recovery: overhead %s (%d queries, %d events)", m.name, queries, events))
		}
		var eng *ita.Engine
		if m.name == "memory" {
			eng, err = ita.New(ita.WithCountWindow(win), ita.WithBatchSize(batch))
		} else {
			eng, err = ita.Open(filepath.Join(tmp, "ovh-"+m.name),
				ita.WithCountWindow(win), ita.WithBatchSize(batch),
				ita.WithDurability(m.d), ita.WithCheckpointEvery(0))
		}
		if err != nil {
			return rec, err
		}
		rate, err := run(eng)
		if cerr := eng.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return rec, err
		}
		if i == 0 {
			memRate = rate
		}
		rec.Cells = append(rec.Cells, Cell{
			Labels:  map[string]string{"phase": "overhead", "durability": m.name},
			Metrics: map[string]float64{"ingest_docs_per_sec": rate, "slowdown_vs_memory": slowdown(memRate, rate)},
		})
	}

	// Phase 2 — recovery time vs checkpoint interval, at the default
	// EpochSync policy.
	for _, every := range intervals {
		if progress != nil {
			progress(fmt.Sprintf("recovery: crash/reopen, checkpoint every %d", every))
		}
		dir := filepath.Join(tmp, fmt.Sprintf("rec-%d", every))
		eng, err := ita.Open(dir, ita.WithCountWindow(win), ita.WithBatchSize(batch),
			ita.WithDurability(ita.DurabilityEpochSync), ita.WithCheckpointEvery(every))
		if err != nil {
			return rec, err
		}
		rate, err := run(eng)
		if err != nil {
			return rec, err
		}
		preQueries, preWindow := eng.Queries(), eng.WindowLen()
		preResults := eng.ResultsAll()
		// Crash: the engine is simply dropped (no Close, no final
		// checkpoint); the single-shard engine holds no goroutines.
		eng = nil

		var walBytes, ckptBytes int64
		tailRecords := 0
		st, err := wal.ScanDir(dir)
		if err != nil {
			return rec, err
		}
		for _, seq := range st.Segments {
			if fi, err := os.Stat(wal.SegmentPath(dir, seq)); err == nil {
				walBytes += fi.Size()
			}
			if res, err := wal.ScanFile(wal.SegmentPath(dir, seq)); err == nil {
				tailRecords += len(res.Records)
			}
		}
		if latest, ok := st.Latest(); ok {
			if fi, err := os.Stat(wal.CheckpointPath(dir, latest)); err == nil {
				ckptBytes = fi.Size()
			}
		}

		t0 := time.Now()
		reopened, err := ita.Open(dir)
		if err != nil {
			return rec, fmt.Errorf("recovery (every=%d): %w", every, err)
		}
		recoverMs := float64(time.Since(t0).Nanoseconds()) / 1e6
		recResults := reopened.ResultsAll()
		ok := reopened.Queries() == preQueries && reopened.WindowLen() == preWindow &&
			len(recResults) == len(preResults)
		for i := range recResults {
			if !ok {
				break
			}
			if recResults[i].Query != preResults[i].Query ||
				len(recResults[i].Matches) != len(preResults[i].Matches) {
				ok = false
			}
			for j := range recResults[i].Matches {
				if recResults[i].Matches[j] != preResults[i].Matches[j] {
					ok = false
					break
				}
			}
		}
		if cerr := reopened.Close(); cerr != nil {
			return rec, cerr
		}
		if !ok {
			return rec, fmt.Errorf("recovery (every=%d): recovered state diverged from crashed engine", every)
		}
		rec.Cells = append(rec.Cells, Cell{
			Labels: map[string]string{"phase": "recovery", "durability": "epoch", "checkpoint_every": strconv.Itoa(every)},
			Metrics: map[string]float64{
				"ingest_docs_per_sec": rate,
				"slowdown_vs_memory":  slowdown(memRate, rate),
				"wal_bytes":           float64(walBytes),
				"tail_records":        float64(tailRecords),
				"checkpoint_bytes":    float64(ckptBytes),
				"recover_ms":          recoverMs,
				"recovered_ok":        1,
			},
		})
	}
	return rec, nil
}

// slowdown is the in-memory ingest rate over rate (1 when rate is 0).
func slowdown(memRate, rate float64) float64 {
	if rate > 0 {
		return memRate / rate
	}
	return 1
}

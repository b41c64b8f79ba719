package harness

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ita"
)

// Failover measures the warm-standby replication path end to end:
// steady-state lag while the standby shadows a full ingest run,
// catch-up time after falling each gap in behind (measured in epoch
// boundaries), and the promote-to-first-served-read latency of a
// failover. One primary/standby pair lives through the whole
// experiment, so the catch-up cells exercise rejoin against a primary
// with real history, not a fresh directory. Cells are labelled by
// phase:
//
//   - "steady": the primary streams the workload while a live standby
//     applies it; replication lag (epochs the standby has yet to
//     acknowledge) is sampled from the primary's ack ledger after every
//     batch, and the drain time from the last write to a fully
//     caught-up standby is timed.
//   - "catchup" (one per behind_epochs gap): the standby is stopped,
//     the primary runs ahead by the gap, and the rejoin is timed from
//     OpenFollower to lag zero — through the resume negotiation or,
//     past the retention window, the checkpoint-resync fallback
//     (resynced records which).
//   - "promote": the primary is shut down and the standby promoted;
//     the cell times Promote itself (stopping the replication client
//     and flipping the engine writable) and the first read served by
//     the new primary, and verifies that read against the old
//     primary's final published results.
func Failover(p Profile, queries, queryLen, win, batch int, behind []int, events int, progress func(string)) (Record, error) {
	const dict = 2000
	rec := newRecord("failover", map[string]any{
		"queries": queries, "query_len": queryLen, "k": p.K, "window": win, "batch_size": batch, "events": events,
	})

	tmp, err := os.MkdirTemp("", "ita-failover-*")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(tmp)
	pDir := filepath.Join(tmp, "primary")
	fDir := filepath.Join(tmp, "standby")

	prim, err := ita.Open(pDir, ita.WithCountWindow(win), ita.WithBatchSize(batch),
		ita.WithDurability(ita.DurabilityOff), ita.WithCheckpointEvery(64))
	if err != nil {
		return rec, err
	}
	defer prim.Close()
	addr, err := prim.StartReplication("127.0.0.1:0")
	if err != nil {
		return rec, err
	}
	stand, err := ita.OpenFollower(fDir, addr.String(), ita.WithDurability(ita.DurabilityOff))
	if err != nil {
		return rec, err
	}
	defer func() { stand.Close() }()

	// waitCaughtUp polls the primary's ack ledger until the standby has
	// acknowledged the primary's current head epoch, returning the wait.
	waitCaughtUp := func(ctx string) (time.Duration, error) {
		t0 := time.Now()
		deadline := t0.Add(2 * time.Minute)
		for {
			fs := prim.ReplicationStats().Followers
			if len(fs) > 0 && fs[len(fs)-1].Connected && fs[len(fs)-1].LagEpochs == 0 {
				return time.Since(t0), nil
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("failover: %s: standby never caught up: %+v", ctx, fs)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	qrnd := rand.New(rand.NewSource(7777))
	for i := 0; i < queries; i++ {
		if _, err := prim.Register(readsText(qrnd, dict, queryLen), p.K); err != nil {
			return rec, err
		}
	}

	// stream ingests n events in epoch-sized batches and returns the
	// ingest rate; sample, when non-nil, runs after every batch.
	rnd := rand.New(rand.NewSource(42))
	clock := time.Unix(0, 0)
	stream := func(n int, sample func()) (float64, error) {
		items := make([]ita.TimedText, batch)
		start := time.Now()
		sent := 0
		for sent < n {
			for i := range items {
				clock = clock.Add(time.Millisecond)
				items[i] = ita.TimedText{Text: readsText(rnd, dict, 12), At: clock}
			}
			if _, err := prim.IngestBatch(items); err != nil {
				return 0, err
			}
			sent += batch
			if sample != nil {
				sample()
			}
		}
		return float64(sent) / time.Since(start).Seconds(), nil
	}

	// Phase 1 — steady-state shadowing.
	if progress != nil {
		progress(fmt.Sprintf("failover: steady state (%d queries, %d events)", queries, events))
	}
	var lagSum, lagMax uint64
	samples := 0
	rate, err := stream(events, func() {
		fs := prim.ReplicationStats().Followers
		if len(fs) == 0 {
			return
		}
		lag := fs[len(fs)-1].LagEpochs
		lagSum += lag
		lagMax = max(lagMax, lag)
		samples++
	})
	if err != nil {
		return rec, err
	}
	steady := Cell{
		Labels: map[string]string{"phase": "steady"},
		Metrics: map[string]float64{
			"ingest_docs_per_sec": rate,
			"lag_samples":         float64(samples),
			"lag_epochs_avg":      0,
			"lag_epochs_max":      float64(lagMax),
		},
	}
	if samples > 0 {
		steady.Metrics["lag_epochs_avg"] = float64(lagSum) / float64(samples)
	}
	if err := prim.Flush(); err != nil {
		return rec, err
	}
	drain, err := waitCaughtUp("steady drain")
	if err != nil {
		return rec, err
	}
	steady.Metrics["drain_ms"] = float64(drain.Nanoseconds()) / 1e6
	rec.Cells = append(rec.Cells, steady)

	// Phase 2 — catch-up from N epochs behind. The standby closes, the
	// primary keeps going, and the rejoin is timed end to end.
	for _, n := range behind {
		if progress != nil {
			progress(fmt.Sprintf("failover: catch-up from %d epochs behind", n))
		}
		if err := stand.Close(); err != nil {
			return rec, err
		}
		for i := 0; i < n; i++ {
			if _, err := stream(batch, nil); err != nil {
				return rec, err
			}
			if err := prim.Flush(); err != nil {
				return rec, err
			}
		}
		t0 := time.Now()
		stand, err = ita.OpenFollower(fDir, addr.String(), ita.WithDurability(ita.DurabilityOff))
		if err != nil {
			return rec, err
		}
		if _, err := waitCaughtUp(fmt.Sprintf("catch-up n=%d", n)); err != nil {
			return rec, err
		}
		// The resync counter is per engine instance, so any non-zero
		// value here belongs to this rejoin.
		rec.Cells = append(rec.Cells, Cell{
			Labels: map[string]string{"phase": "catchup", "behind_epochs": strconv.Itoa(n)},
			Metrics: map[string]float64{
				"catchup_ms": float64(time.Since(t0).Nanoseconds()) / 1e6,
				"resynced":   bit(stand.ReplicationStats().Resyncs > 0),
			},
		})
	}

	// Phase 3 — failover. The primary stops serving; the standby must
	// come up writable and serve its first read from the promoted state.
	if progress != nil {
		progress("failover: promote standby")
	}
	if err := prim.Flush(); err != nil {
		return rec, err
	}
	if _, err := waitCaughtUp("pre-promote"); err != nil {
		return rec, err
	}
	want := prim.ResultsAll()
	if err := prim.Close(); err != nil {
		return rec, err
	}
	t0 := time.Now()
	if err := stand.Promote(); err != nil {
		return rec, fmt.Errorf("failover: promote: %w", err)
	}
	promoted := time.Now()
	got := stand.ResultsAll()
	read := time.Now()

	ok := len(got) == len(want)
	for i := range got {
		if !ok {
			break
		}
		if got[i].Query != want[i].Query || len(got[i].Matches) != len(want[i].Matches) {
			ok = false
		}
		for j := range got[i].Matches {
			if got[i].Matches[j] != want[i].Matches[j] {
				ok = false
				break
			}
		}
	}
	// The promoted engine must also accept writes.
	if ok {
		clock = clock.Add(time.Millisecond)
		if _, err := stand.IngestText(readsText(rnd, dict, 12), clock); err != nil {
			ok = false
		}
	}
	rec.Cells = append(rec.Cells, Cell{
		Labels: map[string]string{"phase": "promote"},
		Metrics: map[string]float64{
			"promote_ms":    float64(promoted.Sub(t0).Nanoseconds()) / 1e6,
			"first_read_ms": float64(read.Sub(promoted).Nanoseconds()) / 1e6,
			"promoted_ok":   bit(ok),
		},
	})
	if !ok {
		return rec, fmt.Errorf("failover: promoted standby diverged from the primary's final results")
	}
	return rec, nil
}

// bit records a boolean outcome as a 0/1 metric.
func bit(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

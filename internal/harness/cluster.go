package harness

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"ita"
	"ita/internal/cluster"
)

// Cluster measures hash-partitioned query serving behind the merge
// router at each node count: ingest throughput through the full
// fan-out, merged and owner-routed read latency, and byte-identity of
// the served results across cells. Every cell replays the identical
// workload (same seeds, same pinned timestamps), so the first cell —
// conventionally a single node — is both the performance baseline and
// the correctness reference for every larger cluster.
//
// Each node count produces two cells, labelled by phase and nodes:
//
//   - "ingest": the full document stream fanned out to every node
//     through the merge router, in epoch-sized batches. Every node
//     ingests every document, so rel_baseline (throughput against the
//     first cell) is the fan-out cost, while each node maintains only
//     its placement-hash slice of the queries.
//   - "read": merged reads through the router — merged_read_us is one
//     ResultsAll (concatenate and re-sort every node's slice),
//     owner_read_us one placement-routed Results, each averaged over
//     read_iters iterations.
//
// equivalent_ok confirms the cell serves results identical to the first
// cell's, match for match.
func Cluster(p Profile, queries, queryLen, win, batch int, nodeCounts []int, events int, progress func(string)) (Record, error) {
	const dict = 2000
	const readIters = 200
	rec := newRecord("cluster", map[string]any{
		"queries": queries, "query_len": queryLen, "k": p.K, "window": win, "batch_size": batch,
		"events": events, "node_counts": nodeCounts,
	})

	var reference []cluster.QueryTopK
	var baseRate float64
	for _, n := range nodeCounts {
		if n < 1 {
			return rec, fmt.Errorf("cluster: node count %d < 1", n)
		}
		if progress != nil {
			progress(fmt.Sprintf("cluster: %d node(s), %d queries, %d events", n, queries, events))
		}

		engines := make([]*ita.Engine, n)
		nodes := make([]cluster.Node, n)
		for i := range engines {
			eng, err := ita.New(ita.WithCountWindow(win), ita.WithBatchSize(batch))
			if err != nil {
				return rec, err
			}
			defer eng.Close()
			engines[i] = eng
			nodes[i] = cluster.Local(eng)
		}
		router, err := cluster.NewRouter(nodes)
		if err != nil {
			return rec, err
		}

		qrnd := rand.New(rand.NewSource(7777))
		for i := 0; i < queries; i++ {
			if _, err := router.Register(readsText(qrnd, dict, queryLen), p.K); err != nil {
				return rec, err
			}
		}

		// Ingest phase: the identical stream every cell sees, timed
		// through the router's fan-out.
		rnd := rand.New(rand.NewSource(42))
		clock := time.Unix(0, 0)
		items := make([]ita.TimedText, batch)
		start := time.Now()
		sent := 0
		for sent < events {
			for i := range items {
				clock = clock.Add(time.Millisecond)
				items[i] = ita.TimedText{Text: readsText(rnd, dict, 12), At: clock}
			}
			if _, err := router.IngestBatch(items); err != nil {
				return rec, err
			}
			sent += batch
		}
		if err := router.Flush(); err != nil {
			return rec, err
		}
		rate := float64(sent) / time.Since(start).Seconds()
		if baseRate == 0 {
			baseRate = rate
		}
		nodesLabel := strconv.Itoa(n)

		// Correctness gate before the read timings: every cell serves
		// the same merged answer as the first cell, match for match.
		all, err := router.ResultsAll()
		if err != nil {
			return rec, err
		}
		if reference == nil {
			reference = all
		}
		equivalent := sameTopK(all, reference)
		rec.Cells = append(rec.Cells, Cell{
			Labels: map[string]string{"phase": "ingest", "nodes": nodesLabel},
			Metrics: map[string]float64{
				"ingest_docs_per_sec": rate,
				"rel_baseline":        rate / baseRate,
				"equivalent_ok":       bit(equivalent),
			},
		})
		if !equivalent {
			return rec, fmt.Errorf("cluster: %d-node merged results diverge from the baseline cell", n)
		}

		// Read phase: merged scans and owner-routed point reads.
		t0 := time.Now()
		for i := 0; i < readIters; i++ {
			if _, err := router.ResultsAll(); err != nil {
				return rec, err
			}
		}
		mergedUs := float64(time.Since(t0).Nanoseconds()) / 1e3 / readIters
		t0 = time.Now()
		for i := 0; i < readIters; i++ {
			id := reference[i%len(reference)].Query
			if _, _, ok, err := router.Results(id); err != nil || !ok {
				return rec, fmt.Errorf("cluster: owner read %d: ok=%v err=%v", id, ok, err)
			}
		}
		rec.Cells = append(rec.Cells, Cell{
			Labels: map[string]string{"phase": "read", "nodes": nodesLabel},
			Metrics: map[string]float64{
				"merged_read_us": mergedUs,
				"owner_read_us":  float64(time.Since(t0).Nanoseconds()) / 1e3 / readIters,
				"read_iters":     readIters,
				"equivalent_ok":  1,
			},
		})

		if err := router.Close(); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

// sameTopK reports whether two merged result sets are identical:
// same queries in the same order, same matches with the same scores.
func sameTopK(got, want []cluster.QueryTopK) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Query != want[i].Query || got[i].Text != want[i].Text ||
			len(got[i].Matches) != len(want[i].Matches) {
			return false
		}
		for j := range got[i].Matches {
			if got[i].Matches[j] != want[i].Matches[j] {
				return false
			}
		}
	}
	return true
}

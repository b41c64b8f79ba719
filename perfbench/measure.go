package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ita"
)

// stamp records what a run measured and where: two runs with equal
// InputDigest fed the engine identical inputs.
type stamp struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	InputDigest string  `json:"input_digest"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	CPUModel    string  `json:"cpu_model"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Source      string  `json:"source_sha256"`
	PacedRate   float64 `json:"paced_rate_docs_per_s"`
	Unresolved  bool    `json:"result_latency_unresolved"`
	SpanFile    string  `json:"span_file,omitempty"`
}

// measure runs one workload: the untraced facade run, then either the
// oracle check (end-to-end metrics) or the traced replica with both
// checks (per-layer metrics).
func measure(w workload, seed int64, total time.Duration, traced bool, out, commit string) (*report, error) {
	plan := planFor(total)
	in, err := generate(w, seed, plan)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	rep := &report{stamp: stamp{
		Workload: w.name, Seed: seed, Seconds: total.Seconds(), Trace: traced,
		InputDigest: in.digest, GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Commit: commit, Source: sourceDigest("."),
		PacedRate: w.pacedRate,
	}}
	f := newFacadeRun(w, in, plan, scratch)
	reps := 3
	if traced {
		reps = 1
	}
	if err := f.run(reps, traced); err != nil {
		return nil, err
	}
	rep.stamp.Unresolved = f.unresolved
	sample := make([]ita.QueryID, len(in.sample))
	for i, s := range in.sample {
		sample[i] = f.standing[s]
	}
	attempted, failed := f.attempted, f.failed

	if !traced {
		a, err := analyze(f.ops)
		if err != nil {
			return nil, err
		}
		n, bad, err := oracleCheck(a.docs, a.queries, sample, f.final, w)
		if err != nil {
			return nil, err
		}
		attempted += n
		failed += bad
		rep.result = result{Correct: bad == 0, Attempted: attempted, Failed: failed}
		endToEnd(rep, f)
		return rep, nil
	}

	tr := newTracer()
	r := newReplica(w, tr)
	for i, o := range f.ops {
		t0 := time.Now()
		if err := r.apply(o); err != nil {
			return nil, fmt.Errorf("replica op %d: %w", i, err)
		}
		if o.phase == phSaturated {
			r.satWall += time.Since(t0)
		}
	}
	nRep, badRep := replicaCheck(r, f.final)
	nOra, badOra, err := oracleCheck(r.docs, r.queries, sample, f.final, w)
	if err != nil {
		return nil, err
	}
	attempted += nRep + nOra
	failed += badRep + badOra
	rep.result = result{Correct: badRep == 0 && badOra == 0 && f.recoverBad == 0, Attempted: attempted, Failed: failed}

	wp, err := walPass(tr, f.ops, filepath.Join(scratch, "walpass.wal"))
	if err != nil {
		return nil, err
	}
	shardTimes, err := shardPass(tr, r, f.ops)
	if err != nil {
		return nil, err
	}
	perLayer(rep, f, r, wp, shardTimes)
	spanFile := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(spanFile, map[string]any{"stamp": rep.stamp}); err != nil {
		return nil, err
	}
	rep.stamp.SpanFile = spanFile
	return rep, nil
}

// endToEnd reports the end-to-end metrics. Throughput is the epoch size
// over the median time of one saturated iteration; latencies are
// medians of every sample of the measured cycles. Read latency, the
// latency tails and restart time are reported by the traced run: their
// run-to-run spread on a shared two-core machine is too wide to bound.
func endToEnd(rep *report, f *facadeRun) {
	rep.set("setup_s", median(f.setupTimes).Seconds(), "s")
	rep.set("ingest_docs_per_s", float64(f.w.epoch)/median(f.iterLat).Seconds(), "docs/s")
	rep.set("result_latency_p50_ms", ms(median(f.resultLat)), "ms")
	rep.set("register_p50_us", us(median(f.registerLat)), "us")
	rep.set("heap_live_mb", float64(f.heapLive)/(1<<20), "MiB")
}

func perLayer(rep *report, f *facadeRun, r *replica, wp walStats, shardTimes []time.Duration) {
	s := &r.sat
	docs := float64(max(1, s.docs))
	epochs := float64(max(1, s.epochs))
	epochSum := sum(s.total)
	rep.set("textproc.analyze_us_per_doc", us(s.textproc)/docs, "us")
	rep.set("vsm.weight_us_per_doc", us(s.vsm)/docs, "us")
	rep.set("textproc.dict_terms", float64(r.pipe.Dictionary().Size()), "count")

	rep.set("wal.append_us_per_epoch", us(wp.appendSum)/float64(max(1, wp.epochs)), "us")
	rep.set("wal.sync_ms_p50", ms(pct(wp.syncs, 50)), "ms")
	rep.set("wal.sync_ms_p99", ms(pct(wp.syncs, 99)), "ms")
	rep.set("wal.bytes_per_doc", float64(wp.bytes)/docs, "B")

	rep.set("invindex.apply_ms_p50", ms(pct(s.index, 50)), "ms")
	rep.set("invindex.apply_ms_p99", ms(pct(s.index, 99)), "ms")
	rep.set("invindex.apply_us_per_doc", us(sum(s.index))/docs, "us")
	rep.set("invindex.inserts_per_doc", float64(s.stats.IndexInserts)/docs, "count")
	rep.set("invindex.deletes_per_doc", float64(s.stats.IndexDeletes)/docs, "count")
	rep.set("invindex.bytes_per_posting", float64(r.index.PostingBytes())/float64(max(1, r.index.PostingCount())), "B")
	rep.set("invindex.memory_mb", float64(r.index.MemoryBytes())/(1<<20), "MiB")
	rep.set("invindex.share_of_epoch", ratio(sum(s.index), epochSum), "ratio")

	rep.set("core.handle_epoch_ms_p50", ms(pct(s.maintain, 50)), "ms")
	rep.set("core.handle_epoch_ms_p99", ms(pct(s.maintain, 99)), "ms")
	rep.set("core.maintain_us_per_doc", us(sum(s.maintain))/docs, "us")
	rep.set("core.share_of_epoch", ratio(sum(s.maintain), epochSum), "ratio")
	rep.set("core.publish_us_p50", us(pct(s.publish, 50)), "us")
	rep.set("core.probe_hits_per_doc", float64(s.stats.ProbeHits)/docs, "count")
	rep.set("core.search_reads_per_doc", float64(s.stats.SearchReads)/docs, "count")
	rep.set("core.score_computations_per_doc", float64(s.stats.ScoreComputations)/docs, "count")
	rep.set("core.tree_updates_per_doc", float64(s.stats.TreeUpdates)/docs, "count")
	rep.set("core.refills_per_epoch", float64(s.stats.Refills)/epochs, "count")
	rep.set("core.scores_per_probe_hit", float64(s.stats.ScoreComputations)/float64(max(1, s.stats.ProbeHits)), "ratio")
	rep.set("core.register_us_p50", us(pct(r.regs, 50)), "us")
	rep.set("core.register_us_p99", us(pct(r.regs, 99)), "us")
	rep.set("core.search_reads_per_register", float64(r.regReads)/float64(max(1, r.regCount)), "count")

	// The shard pass timed the first n saturated epochs; the replica's
	// inline index and maintenance time of the same epochs is the base.
	n := len(shardTimes)
	inline := sum(s.index[:n]) + sum(s.maintain[:n])
	rep.set("shard.process_epoch_ms_p50", ms(pct(shardTimes, 50)), "ms")
	rep.set("shard.parallel_gain", ratio(inline, sum(shardTimes)), "ratio")

	rep.set("ita.result_latency_p95_ms", ms(pct(f.resultLat, 95)), "ms")
	rep.set("ita.register_p95_us", us(pct(f.registerLat, 95)), "us")
	rep.set("ita.read_p50_us", us(pct(f.reads.lat, 50)), "us")
	rep.set("ita.read_p95_us", us(pct(f.reads.lat, 95)), "us")
	rep.set("ita.recovery_s", median(f.recoverTimes).Seconds(), "s")
	rep.set("ita.ingest_batch_ms_p50", ms(pct(f.batchLat, 50)), "ms")
	rep.set("ita.ingest_batch_ms_p99", ms(pct(f.batchLat, 99)), "ms")
	rep.set("ita.overhead_ms_per_epoch", ms(pct(f.batchLat, 50))-ms(pct(s.total, 50)), "ms")

	rep.set("watch.deltas_per_epoch", float64(f.deltas)/float64(max(1, f.ingestCalls)), "count")
	rep.set("watch.deliver_ms_p50", ms(pct(f.deliverLat, 50)), "ms")

	rep.set("gen.queue_wait_ms_p50", ms(pct(f.queueWait, 50)), "ms")
	rep.set("gen.queue_wait_ms_p99", ms(pct(f.queueWait, 99)), "ms")
	rep.set("gen.lateness_ms_max", ms(f.lateness), "ms")
	rep.set("gen.epoch_docs_mean", float64(f.pacedSent)/float64(max(1, f.pacedSends)), "count")
	rep.set("gen.backlog_max_docs", float64(f.backlogMax), "count")

	rep.set("runtime.gc_cpu_frac", f.rt.gcCPU/f.rt.usedCPU, "ratio")
	rep.set("runtime.gc_pause_p99_ms", ms(pct(f.rt.pauses, 99)), "ms")
	rep.set("runtime.alloc_bytes_per_doc", float64(f.rt.allocBytes)/float64(max(1, f.satDocs)), "B")

	untraced := float64(f.satDocs) / f.satElapsed.Seconds()
	traced := float64(s.docs) / r.satWall.Seconds()
	rep.set("trace.overhead_pct", 100*(untraced-traced)/untraced, "%")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(xs []time.Duration) time.Duration {
	var s time.Duration
	for _, x := range xs {
		s += x
	}
	return s
}

// pct is the nearest-rank p-th percentile; 0 for no samples.
func pct(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p/100*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []time.Duration) time.Duration { return pct(xs, 50) }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// run records which code it measured even outside a git checkout.
// Hidden directories (build outputs, VCS data) are skipped.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(p))
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

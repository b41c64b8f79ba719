package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"ita"
)

type phase uint8

const (
	phSetup phase = iota
	phWarmup
	phSaturated
	phPaced
	phRegister
)

func (p phase) String() string {
	return [...]string{"setup", "warmup", "saturated", "paced", "register"}[p]
}

type opKind uint8

const (
	opIngest opKind = iota
	opRegister
	opUnregister
)

// op is one mutating facade call, recorded so the traced replica and
// the correctness check can replay the exact operation sequence.
type op struct {
	kind  opKind
	phase phase
	texts []string // opIngest: the documents; opRegister: the query text
	first int      // opIngest: stream position of the first document
	id    ita.QueryID
}

// arrival is the timestamp of the document at stream position i; the
// count window ignores it, but it must never decrease.
func arrival(i int) time.Time {
	return time.Unix(1_000_000_000, 0).Add(time.Duration(i) * time.Millisecond)
}

// facadeRun drives the public ita facade through every phase with
// tracing off, recording the operation log and the end-to-end samples.
type facadeRun struct {
	w    workload
	in   *inputs
	plan phasePlan
	dir  string // scratch directory for durable engines

	eng      *ita.Engine
	ops      []op
	pos      int // stream position of the next document
	items    []ita.TimedText
	standing []ita.QueryID
	churnID  ita.QueryID
	churnPos int

	// watch delivery: callbacks run on the writer goroutine, inside the
	// IngestBatch call whose epoch produced them.
	firstCallback time.Time
	deltas        int

	attempted, failed int
	recoverBad        int // restarts whose results differed from the engine's

	setupTimes   []time.Duration
	satDocs      int
	satElapsed   time.Duration
	resultLat    []time.Duration // paced: due time to publication
	registerLat  []time.Duration
	grewCycles   int             // cycles whose paced backlog kept growing
	batchLat     []time.Duration // saturated IngestBatch calls
	iterLat      []time.Duration // saturated full-epoch iterations, churn pair included
	heapLive     uint64
	rt           runtimeDelta    // saturated phases
	queueWait    []time.Duration // paced: due time to send
	lateness     time.Duration
	backlogMax   int
	pacedSends   int
	pacedSent    int
	unresolved   bool
	deliverLat   []time.Duration
	ingestCalls  int
	reads        *reader
	final        map[ita.QueryID][]ita.Match
	recoverTimes []time.Duration
}

func newFacadeRun(w workload, in *inputs, plan phasePlan, dir string) *facadeRun {
	return &facadeRun{w: w, in: in, plan: plan, dir: dir}
}

// open builds the workload's engine. A durable engine logs every
// operation but does not fsync (DurabilityOff): on a shared machine the
// fsync time swings from run to run by more than any bound could hold.
// The wal layer's fsync cost is measured by the traced run's wal pass.
func (f *facadeRun) open(dir string) (*ita.Engine, error) {
	opts := []ita.Option{ita.WithCountWindow(f.w.window)}
	if f.w.shards > 0 {
		opts = append(opts, ita.WithShards(f.w.shards))
	}
	if f.w.durable {
		return ita.Open(dir, append(opts, ita.WithDurability(ita.DurabilityOff))...)
	}
	return ita.New(opts...)
}

func (f *facadeRun) ingest(ph phase, texts []string) (time.Duration, error) {
	f.items = f.items[:0]
	for i, t := range texts {
		f.items = append(f.items, ita.TimedText{Text: t, At: arrival(f.pos + i)})
	}
	f.attempted += len(texts)
	f.firstCallback = time.Time{}
	t0 := time.Now()
	_, err := f.eng.IngestBatch(f.items)
	ret := time.Now()
	if err != nil {
		f.failed += len(texts)
		return 0, fmt.Errorf("ingest: %w", err)
	}
	if ph != phSetup && ph != phWarmup {
		f.ingestCalls++
		if !f.firstCallback.IsZero() {
			f.deliverLat = append(f.deliverLat, ret.Sub(f.firstCallback))
		}
	}
	f.ops = append(f.ops, op{kind: opIngest, phase: ph, texts: texts, first: f.pos})
	f.pos += len(texts)
	return ret.Sub(t0), nil
}

func (f *facadeRun) register(ph phase, text string) (ita.QueryID, time.Duration, error) {
	f.attempted++
	t0 := time.Now()
	id, err := f.eng.Register(text, k)
	d := time.Since(t0)
	if err != nil {
		f.failed++
		return 0, 0, fmt.Errorf("register: %w", err)
	}
	f.ops = append(f.ops, op{kind: opRegister, phase: ph, texts: []string{text}, id: id})
	return id, d, nil
}

func (f *facadeRun) unregister(ph phase, id ita.QueryID) error {
	f.attempted++
	if !f.eng.Unregister(id) {
		f.failed++
		return fmt.Errorf("unregister %d: not removed", id)
	}
	f.ops = append(f.ops, op{kind: opUnregister, phase: ph, id: id})
	return nil
}

// setup builds a fresh engine, fills its window in one IngestBatch (the
// bulk-load path) and registers the standing queries, returning the
// elapsed time.
func (f *facadeRun) setup(dir string) (time.Duration, error) {
	f.ops, f.pos = f.ops[:0], 0
	f.standing = make([]ita.QueryID, len(f.in.standing))
	t0 := time.Now()
	eng, err := f.open(dir)
	if err != nil {
		return 0, fmt.Errorf("open engine: %w", err)
	}
	f.eng = eng
	if _, err := f.ingest(phSetup, f.in.setup); err != nil {
		return 0, err
	}
	for i, q := range f.in.standing {
		id, _, err := f.register(phSetup, q)
		if err != nil {
			return 0, err
		}
		f.standing[i] = id
	}
	return time.Since(t0), nil
}

// churnPair registers a fresh query and unregisters the previous one.
func (f *facadeRun) churnPair(ph phase) error {
	if f.churnPos >= len(f.in.churn) {
		return fmt.Errorf("churn query pool exhausted")
	}
	id, d, err := f.register(ph, f.in.churn[f.churnPos])
	if err != nil {
		return err
	}
	f.churnPos++
	if ph != phWarmup {
		f.registerLat = append(f.registerLat, d)
	}
	if f.churnID != 0 {
		if err := f.unregister(ph, f.churnID); err != nil {
			return err
		}
	}
	f.churnID = id
	return nil
}

// run executes set-up (reps times, keeping the last engine) and then
// the measured cycles. With recovery it ends by timing restarts.
func (f *facadeRun) run(reps int, recovery bool) error {
	runtime.GC()
	baseline := heapAlloc()
	for r := 0; r < reps; r++ {
		dir := filepath.Join(f.dir, fmt.Sprintf("setup-%d", r))
		d, err := f.setup(dir)
		if err != nil {
			return err
		}
		f.setupTimes = append(f.setupTimes, d)
		if r < reps-1 {
			if err := f.eng.Close(); err != nil {
				return fmt.Errorf("close: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			runtime.GC()
		}
	}
	f.dir = filepath.Join(f.dir, fmt.Sprintf("setup-%d", reps-1))
	for i, id := range f.standing {
		if i%f.w.watchEvery == 0 {
			if err := f.eng.Watch(id, f.onDelta); err != nil {
				return fmt.Errorf("watch: %w", err)
			}
		}
	}
	f.reads = startReader(f.eng, f.standing, readRate, f.in.readSeed)
	err := f.cycles()
	f.reads.stopAndWait()
	f.attempted += f.reads.n
	f.failed += f.reads.missing
	if err != nil {
		return err
	}
	runtime.GC()
	if h := heapAlloc(); h > baseline {
		f.heapLive = h - baseline
	}
	f.unresolved = f.grewCycles > cycles/2
	f.final = make(map[ita.QueryID][]ita.Match)
	for _, qr := range f.eng.ResultsAll() {
		f.final[qr.Query] = qr.Matches
	}
	if recovery {
		return f.recover()
	}
	return f.eng.Close()
}

// cycles runs the measured phases after an unmeasured warm-up: each
// cycle is a saturated, a paced and a register phase; the reader
// samples during the first two.
func (f *facadeRun) cycles() error {
	pos, err := f.saturated(phWarmup, 0)
	if err != nil {
		return err
	}
	probe := 0
	for c := 0; c < cycles; c++ {
		f.reads.active.Store(true)
		if pos, err = f.saturated(phSaturated, pos); err != nil {
			return err
		}
		if err := f.pacedPhase(c); err != nil {
			return err
		}
		f.reads.active.Store(false)
		if probe, err = f.registerProbe(probe); err != nil {
			return err
		}
	}
	return nil
}

func (f *facadeRun) onDelta(ita.Delta) {
	if f.firstCallback.IsZero() {
		f.firstCallback = time.Now()
	}
	f.deltas++
}

// saturated is the closed loop: IngestBatch calls of one epoch each,
// back to back, from stream position pos; it returns the next position.
// Only phSaturated is measured; phWarmup runs the same loop unmeasured.
func (f *facadeRun) saturated(ph phase, pos int) (int, error) {
	rt0 := readRuntime()
	t0 := time.Now()
	deadline := t0.Add(f.plan.saturated)
	start := pos
	for pos < len(f.in.stream) && time.Now().Before(deadline) {
		hi := min(pos+f.w.epoch, len(f.in.stream))
		it0 := time.Now()
		d, err := f.ingest(ph, f.in.stream[pos:hi])
		if err != nil {
			return pos, err
		}
		full := hi-pos == f.w.epoch
		pos = hi
		if f.w.churn {
			if err := f.churnPair(ph); err != nil {
				return pos, err
			}
		}
		if ph == phSaturated {
			f.batchLat = append(f.batchLat, d)
			if full {
				f.iterLat = append(f.iterLat, time.Since(it0))
			}
		}
	}
	if ph == phSaturated {
		f.satElapsed += time.Since(t0)
		f.satDocs += pos - start
		f.rt.add(readRuntime().sub(rt0))
	}
	return pos, nil
}

// pacedPhase is the open loop: documents come due on the seeded Poisson
// schedule, and each IngestBatch call carries every document due but
// not yet sent, up to the epoch size.
func (f *facadeRun) pacedPhase(c int) error {
	due, docs := f.in.due[c], f.in.paced[c]
	n := len(docs)
	start := time.Now()
	hardStop := start.Add(f.plan.paced + f.plan.paced/4)
	var backlogs []int
	next := 0
	for next < n {
		now := time.Now()
		if now.After(hardStop) {
			break
		}
		if at := start.Add(due[next]); now.Before(at) {
			time.Sleep(at.Sub(now))
			if late := time.Since(at); late > f.lateness {
				f.lateness = late
			}
			continue
		}
		j := next
		for j < n && !start.Add(due[j]).After(now) {
			j++
		}
		backlogs = append(backlogs, j-next)
		hi := min(j, next+f.w.epoch)
		if _, err := f.ingest(phPaced, docs[next:hi]); err != nil {
			return err
		}
		ret := time.Now()
		for i := next; i < hi; i++ {
			at := start.Add(due[i])
			f.resultLat = append(f.resultLat, ret.Sub(at))
			f.queueWait = append(f.queueWait, now.Sub(at))
		}
		f.pacedSends++
		next = hi
		if f.w.churn {
			if err := f.churnPair(phPaced); err != nil {
				return err
			}
		}
	}
	f.pacedSent += next
	for _, b := range backlogs {
		f.backlogMax = max(f.backlogMax, b)
	}
	// The backlog keeps growing when documents are still unsent at the
	// hard stop, or when the second half's mean backlog is more than
	// twice the first half's plus one epoch.
	half := len(backlogs) / 2
	first, second := meanInt(backlogs[:half]), meanInt(backlogs[half:])
	if unsent := n - next; unsent > 0 || second > 2*first+float64(f.w.epoch) {
		f.grewCycles++
		f.attempted += unsent
		f.failed += unsent
	}
	return nil
}

// registerProbe times Register of fresh queries, each followed by an
// Unregister, from probe pool position i; it returns the next position.
func (f *facadeRun) registerProbe(i int) (int, error) {
	deadline := time.Now().Add(f.plan.register)
	for ; i < len(f.in.probes) && time.Now().Before(deadline); i++ {
		id, d, err := f.register(phRegister, f.in.probes[i])
		if err != nil {
			return i, err
		}
		f.registerLat = append(f.registerLat, d)
		if err := f.unregister(phRegister, id); err != nil {
			return i, err
		}
	}
	return i, nil
}

// recover closes the engine and times bringing it back: a durable
// engine checkpoints, closes and reopens from its directory; an
// in-memory engine restores from a snapshot taken before Close. Every
// restart must serve the results the engine had. The explicit
// checkpoint makes every restart read the same state: without it the
// log tail to replay would be as long as the distance to the last
// automatic checkpoint, which varies from run to run.
func (f *facadeRun) recover() error {
	var snap bytes.Buffer
	if f.w.durable {
		if err := f.eng.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	} else if err := f.eng.Snapshot(&snap); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := f.eng.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	f.eng = nil
	// Restart while restarts stay cheap: up to nine times, until three
	// seconds have gone to restarts.
	var spent time.Duration
	for r := 0; r < 9 && spent < 3*time.Second; r++ {
		runtime.GC()
		f.attempted++
		t0 := time.Now()
		var eng *ita.Engine
		var err error
		if f.w.durable {
			eng, err = f.open(f.dir)
		} else {
			eng, err = ita.Restore(bytes.NewReader(snap.Bytes()))
		}
		d := time.Since(t0)
		if err != nil {
			f.failed++
			return fmt.Errorf("recover: %w", err)
		}
		spent += d
		f.recoverTimes = append(f.recoverTimes, d)
		for _, i := range f.in.sample {
			id := f.standing[i]
			f.attempted++
			if !sameMatches(eng.Results(id), f.final[id]) {
				f.failed++
				f.recoverBad++
			}
		}
		if err := eng.Close(); err != nil {
			return fmt.Errorf("close recovered engine: %w", err)
		}
	}
	return nil
}

// reader calls Results on random standing queries at a fixed rate from
// its own goroutine while the writer ingests, while active is set.
type reader struct {
	active     atomic.Bool
	stop       chan struct{}
	done       sync.WaitGroup
	lat        []time.Duration
	n, missing int
}

func startReader(eng *ita.Engine, ids []ita.QueryID, rate float64, seed int64) *reader {
	r := &reader{stop: make(chan struct{})}
	period := time.Duration(float64(time.Second) / rate)
	r.done.Add(1)
	go func() {
		defer r.done.Done()
		rng := rand.New(rand.NewSource(seed))
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
			if !r.active.Load() {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			t0 := time.Now()
			res := eng.Results(id)
			r.lat = append(r.lat, time.Since(t0))
			r.n++
			if res == nil {
				r.missing++
			}
		}
	}()
	return r
}

// stopAndWait stops the goroutine and returns once it has exited; its
// samples are safe to read afterwards.
func (r *reader) stopAndWait() {
	close(r.stop)
	r.done.Wait()
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runtimeDelta is the Go runtime's bill for one phase.
type runtimeDelta struct {
	gcCPU, usedCPU float64 // seconds
	allocBytes     uint64
	pauses         []time.Duration
}

type runtimeSample struct {
	gcCPU, totalCPU, idleCPU float64
	allocBytes               uint64
	gc                       debug.GCStats
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var s runtimeSample
	s.gcCPU = ms[0].Value.Float64()
	s.totalCPU = ms[1].Value.Float64()
	s.idleCPU = ms[2].Value.Float64()
	s.allocBytes = ms[3].Value.Uint64()
	s.gc.Pause = make([]time.Duration, 0, 256)
	debug.ReadGCStats(&s.gc)
	return s
}

func (d *runtimeDelta) add(o runtimeDelta) {
	d.gcCPU += o.gcCPU
	d.usedCPU += o.usedCPU
	d.allocBytes += o.allocBytes
	d.pauses = append(d.pauses, o.pauses...)
}

func (s runtimeSample) sub(o runtimeSample) runtimeDelta {
	d := runtimeDelta{
		gcCPU:      s.gcCPU - o.gcCPU,
		usedCPU:    (s.totalCPU - s.idleCPU) - (o.totalCPU - o.idleCPU),
		allocBytes: s.allocBytes - o.allocBytes,
	}
	if n := int(s.gc.NumGC - o.gc.NumGC); n > 0 {
		d.pauses = append(d.pauses, s.gc.Pause[:min(n, len(s.gc.Pause))]...)
	}
	return d
}

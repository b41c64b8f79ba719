package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/stats"
	"ita/internal/vsm"
)

// workload is one set of inputs the benchmark runs. Sizes are fixed
// here; only the seed varies between runs.
type workload struct {
	name    string
	window  int  // count window, documents
	queries int  // standing queries registered in set-up
	popular bool // Zipf-popular query terms instead of uniform ones
	shards  int  // WithShards(n) when above 0
	epoch   int  // documents per IngestBatch call
	durable bool
	churn   bool // one Register+Unregister pair after every epoch

	watchEvery int     // Watch every n-th standing query
	pacedRate  float64 // paced-phase arrival rate, documents per second
}

// Shared by every workload.
const (
	k        = 10     // results per query
	queryLen = 4      // terms per query
	readRate = 1000.0 // Results calls per second from the reader goroutine

	// satCap bounds the saturated phases' document pool, in documents
	// per second of phase time; a machine faster than this ends a phase
	// early rather than reuse a document. regCap bounds the register
	// phases' query pool the same way.
	satCap = 1500.0
	regCap = 20000.0
)

var workloads = []workload{
	{name: "wide-window", window: 20000, queries: 1000, epoch: 64, watchEvery: 10, pacedRate: 70},
	{name: "many-queries", window: 1000, queries: 10000, popular: true, shards: 2, epoch: 64, watchEvery: 100, pacedRate: 35},
	{name: "durable-churn", window: 5000, queries: 2000, epoch: 8, durable: true, churn: true, watchEvery: 20, pacedRate: 40},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cycles is how many times a run repeats its saturated, paced and
// register phases. Each end-to-end metric is computed per cycle and
// reported as the median over cycles, so a slow spell of the machine
// that covers a minority of cycles does not move it.
const cycles = 5

// phasePlan is the length of each phase within one cycle.
type phasePlan struct {
	saturated, paced, register time.Duration
}

func planFor(total time.Duration) phasePlan {
	c := total / cycles
	return phasePlan{saturated: c * 20 / 100, paced: c * 70 / 100, register: c * 10 / 100}
}

// inputs is everything a run feeds the engine, generated from the seed
// before any clock starts. Documents and queries are text: every
// synthetic term id renders as the token "t<id>", repeated by its
// frequency, so the engine's text pipeline does real work.
type inputs struct {
	setup    []string                // fills the window
	stream   []string                // saturated-phase pool, consumed in order
	paced    [cycles][]string        // paced-phase documents of each cycle
	due      [cycles][]time.Duration // their due times, offsets from phase start
	standing []string                // standing queries, registered in set-up
	probes   []string                // fresh queries: cold-register probe and churn
	churn    []string                // fresh queries for the per-epoch churn pairs
	sample   []int                   // standing-query indexes checked against the oracle
	readSeed int64
	digest   string
}

// checkSample is how many standing queries the oracle check compares.
const checkSample = 100

func generate(w workload, seed int64, plan phasePlan) (*inputs, error) {
	cfg := corpus.WSJConfig()
	cfg.Seed = seed
	synth, err := corpus.NewSynth(cfg, vsm.Cosine{})
	if err != nil {
		return nil, err
	}
	rng := stats.NewRand(seed ^ 0x5eed)
	in := &inputs{readSeed: rng.Int63()}
	docs := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = renderFreqs(synth.Freqs())
		}
		return out
	}
	query := func() string {
		var q *model.Query
		if w.popular {
			q = synth.PopularQuery(1, k, queryLen)
		} else {
			q = synth.Query(1, k, queryLen)
		}
		ids := make([]model.TermID, len(q.Terms))
		for i, t := range q.Terms {
			ids[i] = t.Term
		}
		return renderTerms(ids)
	}
	queries := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = query()
		}
		return out
	}
	in.setup = docs(w.window)
	in.standing = queries(w.queries)
	in.stream = docs(int(satCap*(cycles+1)*plan.saturated.Seconds()) + w.epoch)
	poisson := stats.NewPoisson(rng, w.pacedRate)
	pacedDocs := 0
	for c := range in.due {
		var at time.Duration
		for {
			at += poisson.NextGap()
			if at >= plan.paced {
				break
			}
			in.due[c] = append(in.due[c], at)
		}
		in.paced[c] = docs(len(in.due[c]))
		pacedDocs += len(in.due[c])
	}
	in.probes = queries(int(regCap*cycles*plan.register.Seconds()) + 1)
	if w.churn {
		epochs := (len(in.stream)+w.epoch-1)/w.epoch + pacedDocs
		in.churn = queries(epochs)
	}
	in.sample = sampleIndexes(rng, w.queries, checkSample)
	in.digest = digestInputs(w, in)
	return in, nil
}

// renderFreqs renders a term-frequency vector as text, terms in
// ascending id order so the rendering is a pure function of the vector.
func renderFreqs(freqs map[model.TermID]int) string {
	ids := make([]model.TermID, 0, len(freqs))
	for t := range freqs {
		ids = append(ids, t)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for _, t := range ids {
		for f := freqs[t]; f > 0; f-- {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteByte('t')
			b.WriteString(strconv.FormatUint(uint64(t), 10))
		}
	}
	return b.String()
}

func renderTerms(ids []model.TermID) string {
	parts := make([]string, len(ids))
	for i, t := range ids {
		parts[i] = "t" + strconv.FormatUint(uint64(t), 10)
	}
	return strings.Join(parts, " ")
}

func sampleIndexes(rng *rand.Rand, n, want int) []int {
	if want > n {
		want = n
	}
	idx := rng.Perm(n)[:want]
	sort.Ints(idx)
	return idx
}

// digestInputs hashes the workload parameters and every generated
// input, so two runs can prove they measured the same inputs.
func digestInputs(w workload, in *inputs) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", w)
	groups := [][]string{in.setup, in.stream, in.standing, in.probes, in.churn}
	groups = append(groups, in.paced[:]...)
	for _, group := range groups {
		fmt.Fprintf(h, "%d\n", len(group))
		for _, s := range group {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
	}
	var b [8]byte
	for _, due := range in.due {
		for _, d := range due {
			binary.LittleEndian.PutUint64(b[:], uint64(d))
			h.Write(b[:])
		}
	}
	for _, i := range in.sample {
		binary.LittleEndian.PutUint64(b[:], uint64(i))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(in.readSeed))
	h.Write(b[:])
	return hex.EncodeToString(h.Sum(nil)[:16])
}

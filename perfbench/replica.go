package main

import (
	"fmt"
	"os"
	"time"

	"ita/internal/core"
	"ita/internal/invindex"
	"ita/internal/model"
	"ita/internal/shard"
	"ita/internal/textproc"
	"ita/internal/vsm"
	"ita/internal/wal"
	"ita/internal/window"
)

// replica replays a facade run's operation log through the modules'
// exported functions, in the order core.ITA and the facade call them,
// with a span around every layer call. It analyzes queries and
// documents in the facade's order, so term ids, and with them the float
// order of every score, match the facade's.
type replica struct {
	w      workload
	tr     *tracer
	pipe   *textproc.Pipeline
	wt     vsm.Cosine
	policy window.Count
	index  *invindex.Index
	stats  core.Stats
	m      *core.Maintainer

	docs    []*model.Document // by stream position
	queries map[model.QueryID]*model.Query
	live    map[model.QueryID]bool

	sat      layerSample // saturated-phase epochs
	regs     []time.Duration
	regReads uint64
	regCount int
	satWall  time.Duration // every saturated-phase operation, end to end
}

// layerSample collects per-epoch layer times and operation counts.
type layerSample struct {
	docs, epochs                    int
	total, index, maintain, publish []time.Duration
	textproc, vsm                   time.Duration
	stats                           core.Stats
}

func newReplica(w workload, tr *tracer) *replica {
	r := &replica{
		w:       w,
		tr:      tr,
		pipe:    textproc.NewPipeline(textproc.NewDictionary(), true, true),
		policy:  window.Count{N: w.window},
		index:   invindex.NewIndexLayout(1, invindex.LayoutBlocked),
		queries: make(map[model.QueryID]*model.Query),
		live:    make(map[model.QueryID]bool),
	}
	r.m = core.NewMaintainer(r.index, &r.stats, core.MaintainerConfig{Seed: 1})
	return r
}

func (r *replica) apply(o op) error {
	switch o.kind {
	case opIngest:
		return r.epoch(o)
	case opRegister:
		return r.register(o)
	default:
		return r.unregister(o)
	}
}

// publish mirrors the facade's publication at an epoch boundary.
func (r *replica) publish() time.Duration {
	t := r.tr.now()
	r.m.Publish()
	return r.tr.child("core.Publish", t)
}

func (r *replica) epoch(o op) error {
	tr := r.tr
	tr.begin("epoch", o.phase, len(o.texts))
	var aT, aV, aM agg
	docs := make([]*model.Document, len(o.texts))
	for i, text := range o.texts {
		t0 := tr.now()
		freqs := r.pipe.TermFreqs(text)
		t1 := tr.now()
		posts := r.wt.DocPostings(freqs)
		t2 := tr.now()
		d, err := model.NewDocument(model.DocID(o.first+i+1), arrival(o.first+i), posts)
		t3 := tr.now()
		if err != nil {
			return err
		}
		aT.add(t0, t1)
		aV.add(t1, t2)
		aM.add(t2, t3)
		docs[i] = d
	}
	r.docs = append(r.docs, docs...)
	dT := tr.flush("textproc.TermFreqs", &aT)
	dV := tr.flush("vsm.DocPostings", &aV)
	tr.flush("model.NewDocument", &aM)
	before := r.stats
	var dIdx, dCore time.Duration
	if len(docs) == 1 {
		// core.ITA.ProcessEpoch hands a one-document epoch to Process.
		d := docs[0]
		t := tr.now()
		if err := r.index.Insert(d); err != nil {
			return err
		}
		dIdx += tr.child("invindex.Insert", t)
		r.stats.Arrivals++
		r.stats.IndexInserts += uint64(len(d.Postings))
		t = tr.now()
		r.m.HandleArrival(d)
		dCore += tr.child("core.HandleArrival", t)
		for {
			oldest := r.index.Oldest()
			if oldest == nil || !r.policy.Expired(oldest.Arrival, d.Arrival, r.index.Len()) {
				break
			}
			t = tr.now()
			x := r.index.RemoveOldest()
			dIdx += tr.child("invindex.RemoveOldest", t)
			r.stats.Expirations++
			r.stats.IndexDeletes += uint64(len(x.Postings))
			t = tr.now()
			r.m.HandleExpire(x)
			dCore += tr.child("core.HandleExpire", t)
		}
	} else {
		now := docs[len(docs)-1].Arrival
		t := tr.now()
		res, err := r.index.ApplyBatch(docs, func(oldest *model.Document, count int) bool {
			return r.policy.Expired(oldest.Arrival, now, count)
		})
		dIdx = tr.child("invindex.ApplyBatch", t)
		if err != nil {
			return err
		}
		r.stats.Epochs++
		r.stats.Arrivals += uint64(len(docs))
		r.stats.Expirations += uint64(len(res.Expired) + res.Dropped)
		r.stats.IndexInserts += uint64(res.Inserts)
		r.stats.IndexDeletes += uint64(res.Deletes)
		t = tr.now()
		r.m.HandleEpoch(docs[res.Dropped:], res.Expired)
		dCore = tr.child("core.HandleEpoch", t)
	}
	delta := statsDelta(r.stats, before)
	dPub := r.publish()
	total := tr.end()
	if o.phase == phSaturated {
		s := &r.sat
		s.docs += len(docs)
		s.epochs++
		s.total = append(s.total, total)
		s.index = append(s.index, dIdx)
		s.maintain = append(s.maintain, dCore)
		s.publish = append(s.publish, dPub)
		s.textproc += dT
		s.vsm += dV
		s.stats.Add(&delta)
	}
	return nil
}

func (r *replica) register(o op) error {
	tr := r.tr
	tr.begin("register", o.phase, 0)
	text := o.texts[0]
	t := tr.now()
	freqs := r.pipe.TermFreqs(text)
	tr.child("textproc.TermFreqs", t)
	t = tr.now()
	terms := r.wt.QueryTerms(freqs)
	tr.child("vsm.QueryTerms", t)
	q, err := model.NewQuery(o.id, k, terms)
	if err != nil {
		return err
	}
	// The facade publishes the pre-registration boundary first.
	r.publish()
	reads := r.stats.SearchReads
	t = tr.now()
	if err := r.m.Register(q); err != nil {
		return err
	}
	d := tr.child("core.Register", t)
	if o.phase > phWarmup {
		r.regs = append(r.regs, d)
		r.regReads += r.stats.SearchReads - reads
		r.regCount++
	}
	r.queries[q.ID] = q
	r.live[q.ID] = true
	r.publish()
	tr.end()
	return nil
}

func (r *replica) unregister(o op) error {
	tr := r.tr
	tr.begin("unregister", o.phase, 0)
	t := tr.now()
	if !r.m.Unregister(o.id) {
		return fmt.Errorf("replica: unregister %d: unknown query", o.id)
	}
	tr.child("core.Unregister", t)
	delete(r.live, o.id)
	r.publish()
	tr.end()
	return nil
}

func statsDelta(a, b core.Stats) core.Stats {
	return core.Stats{
		Arrivals:          a.Arrivals - b.Arrivals,
		Expirations:       a.Expirations - b.Expirations,
		Epochs:            a.Epochs - b.Epochs,
		ProbeHits:         a.ProbeHits - b.ProbeHits,
		SearchReads:       a.SearchReads - b.SearchReads,
		RollupSteps:       a.RollupSteps - b.RollupSteps,
		RollupDrops:       a.RollupDrops - b.RollupDrops,
		Refills:           a.Refills - b.Refills,
		TreeUpdates:       a.TreeUpdates - b.TreeUpdates,
		IndexInserts:      a.IndexInserts - b.IndexInserts,
		IndexDeletes:      a.IndexDeletes - b.IndexDeletes,
		ScoreComputations: a.ScoreComputations - b.ScoreComputations,
		Rescans:           a.Rescans - b.Rescans,
	}
}

// walStats is the wal layer's bill for the saturated epochs.
type walStats struct {
	appendSum time.Duration
	epochs    int
	bytes     int64
	syncs     []time.Duration
}

// walPass measures the wal layer: the saturated epochs' batch records
// and epoch markers are appended to a scratch log with one fsync per
// epoch, as an epoch-synced durable engine writes them.
func walPass(tr *tracer, ops []op, path string) (walStats, error) {
	var ws walStats
	f, err := os.Create(path)
	if err != nil {
		return ws, fmt.Errorf("wal pass: %w", err)
	}
	log := wal.NewLog(f, 0, wal.DurabilityEpochSync)
	defer log.Close()
	var seq uint64
	for _, o := range ops {
		if o.kind != opIngest || o.phase != phSaturated {
			continue
		}
		tr.begin("walpass", o.phase, len(o.texts))
		rec := wal.Record{Kind: wal.KindBatch, Doc: uint64(o.first + 1), Items: make([]wal.DocEntry, len(o.texts))}
		for i, text := range o.texts {
			rec.Items[i] = wal.DocEntry{At: arrival(o.first + i).UnixNano(), Text: text}
		}
		t := tr.now()
		off := log.Offset()
		if err := log.Append(&rec); err != nil {
			return ws, err
		}
		ws.appendSum += tr.child("wal.Append", t)
		ws.bytes += log.Offset() - off
		t = tr.now()
		seq++
		if err := log.Append(&wal.Record{Kind: wal.KindEpoch, Seq: seq}); err != nil {
			return ws, err
		}
		if err := log.Sync(); err != nil {
			return ws, err
		}
		ws.syncs = append(ws.syncs, tr.child("wal.Sync", t))
		tr.end()
		ws.epochs++
	}
	return ws, nil
}

// shardPass rebuilds the replica's set-up state in a two-shard
// shard.Engine from the replica's analyzed documents and queries, then
// times shard.Engine.ProcessEpoch on the first cycle's saturated
// epochs. Query operations between epochs apply untimed.
func shardPass(tr *tracer, rep *replica, ops []op) ([]time.Duration, error) {
	se := shard.New(window.Count{N: rep.w.window}, 2, shard.WithSeed(1))
	defer se.Close()
	var times []time.Duration
	for _, o := range ops {
		if o.phase > phSaturated {
			break
		}
		switch o.kind {
		case opIngest:
			docs := rep.docs[o.first : o.first+len(o.texts)]
			if o.phase != phSaturated {
				if err := se.ProcessEpoch(docs); err != nil {
					return nil, err
				}
				continue
			}
			tr.begin("shardpass", o.phase, len(docs))
			t := tr.now()
			if err := se.ProcessEpoch(docs); err != nil {
				return nil, err
			}
			tr.child("shard.ProcessEpoch", t)
			times = append(times, tr.end())
		case opRegister:
			if err := se.Register(rep.queries[o.id]); err != nil {
				return nil, err
			}
		case opUnregister:
			se.Unregister(o.id)
		}
	}
	return times, nil
}

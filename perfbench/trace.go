package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. A root span covers
// one replica operation (an epoch, a registration, an unregistration);
// its children are the layer calls the operation made. A child that
// covers a per-document loop (the analysis calls) aggregates the calls:
// Calls counts them, Busy sums their durations, and Start/End bound the
// first and last call.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"` // since the tracer's base
	End    int64  `json:"end_ns"`
	Calls  int32  `json:"calls"`
	Busy   int64  `json:"busy_ns"`
	Docs   int32  `json:"docs,omitempty"` // root spans of epochs
}

// tracer keeps spans in memory; they are written out once the run ends.
type tracer struct {
	base  time.Time
	spans []span
	root  int32 // open root span, -1 when none
}

func newTracer() *tracer { return &tracer{base: time.Now(), root: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a root span.
func (t *tracer) begin(name string, ph phase, docs int) {
	t.root = int32(len(t.spans))
	t.spans = append(t.spans, span{ID: t.root, Parent: -1, Name: name, Phase: ph.String(), Start: t.now(), Docs: int32(docs)})
}

// end closes the open root span and returns its duration.
func (t *tracer) end() time.Duration {
	s := &t.spans[t.root]
	s.End = t.now()
	s.Calls = 1
	s.Busy = s.End - s.Start
	t.root = -1
	return time.Duration(s.Busy)
}

// child records one call under the open root span, timed from start
// (a value of now()) until now, and returns its duration.
func (t *tracer) child(name string, start int64) time.Duration {
	end := t.now()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: t.root, Name: name, Start: start, End: end, Calls: 1, Busy: end - start})
	return time.Duration(end - start)
}

// agg accumulates the calls of one per-document loop into one child.
type agg struct {
	start, end, busy int64
	calls            int32
}

func (a *agg) add(start, end int64) {
	if a.calls == 0 {
		a.start = start
	}
	a.end = end
	a.busy += end - start
	a.calls++
}

// flush records the aggregate under the open root span and resets it.
func (t *tracer) flush(name string, a *agg) time.Duration {
	if a.calls > 0 {
		t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: t.root, Name: name, Start: a.start, End: a.end, Calls: a.calls, Busy: a.busy})
	}
	d := time.Duration(a.busy)
	*a = agg{}
	return d
}

// write stores the spans as JSON lines after one header line.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

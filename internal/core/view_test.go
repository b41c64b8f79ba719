package core

import (
	"reflect"
	"testing"
	"time"

	"ita/internal/model"
	"ita/internal/topk"
)

// viewDoc builds a single-term document for the view tests.
func viewDoc(id model.DocID, term model.TermID, w float64, ms int) *model.Document {
	d, err := model.NewDocument(id, time.Unix(0, int64(ms)*1e6), []model.Posting{{Term: term, Weight: w}})
	if err != nil {
		panic(err)
	}
	return d
}

// TestPublishedViewsTrackBoundaries drives a maintainer and checks the
// published read path: unpublished maintenance is invisible, Publish
// exposes exactly the boundary state byte-identical to Result (the
// first Publish arms tracking and publishes every owned query), and
// unregistration removes the slot.
func TestPublishedViewsTrackBoundaries(t *testing.T) {
	m, index := newMaintainer()
	q, err := model.NewQuery(7, 2, []model.QueryTerm{{Term: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(q); err != nil {
		t.Fatal(err)
	}

	// Before any publication the query is registered but invisible to
	// readers.
	reader := m.Views()
	if _, ok := reader.Result(7); ok {
		t.Fatal("unpublished query visible through Views")
	}
	m.Publish()
	f, ok := reader.Result(7)
	if !ok || len(f.Docs) != 0 {
		t.Fatalf("published empty result = %v, %v", f, ok)
	}

	d := viewDoc(1, 1, 0.5, 0)
	if err := index.Insert(d); err != nil {
		t.Fatal(err)
	}
	m.HandleArrival(d)
	// The arrival is applied but not yet published: readers still see
	// the previous boundary.
	if f, _ := reader.Result(7); len(f.Docs) != 0 {
		t.Fatalf("in-flight state leaked to readers: %v", f.Docs)
	}
	m.Publish()
	f, _ = reader.Result(7)
	locked, _ := m.Result(7)
	if !reflect.DeepEqual(f.Docs, locked) {
		t.Fatalf("published %v, locked path %v", f.Docs, locked)
	}
	if len(f.Docs) != 1 || f.Docs[0].Doc != 1 {
		t.Fatalf("published boundary = %v", f.Docs)
	}

	// Publishing with no changes keeps the same snapshot pointer.
	before, _ := reader.Result(7)
	m.Publish()
	after, _ := reader.Result(7)
	if before != after {
		t.Fatal("no-op publish replaced the snapshot")
	}

	// Each enumerates the published query.
	seen := map[model.QueryID]int{}
	reader.Each(func(id model.QueryID, top *topk.Frozen) { seen[id] = len(top.Docs) })
	if len(seen) != 1 || seen[7] != 1 {
		t.Fatalf("Each saw %v", seen)
	}

	if !m.Unregister(7) {
		t.Fatal("Unregister failed")
	}
	if _, ok := reader.Result(7); ok {
		t.Fatal("unregistered query still visible")
	}
}

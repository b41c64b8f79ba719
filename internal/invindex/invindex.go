// Package invindex implements the paper's Figure 1 storage layer: a
// FIFO store of the valid (in-window) documents plus an inverted index
// whose per-term lists hold impact entries ⟨d, w_{d,t}⟩ sorted by
// decreasing weight.
//
// List positions are identified by EntryKey values — (weight, doc id)
// pairs under the list's total order — rather than by node references,
// so a stored position (such as a query's local threshold) stays
// meaningful across arbitrary insertions and deletions, including the
// deletion of the entry it was derived from.
//
// Two physical layouts implement the same list contract (see Layout):
// chunked sorted slices of raw EntryKeys, and block-compressed postings
// (block.go) that pack each 128-entry block's doc ids and weights at
// per-block fixed bit widths behind max-weight/min-weight/count summary
// metadata. Every observable — iteration order, seeks, predecessors,
// lengths, batch semantics — is identical between the layouts; the
// metamorphic differential twin holds them byte-identical through the
// whole engine stack.
package invindex

import (
	"fmt"
	"math"
	"sort"

	"ita/internal/model"
)

// EntryKey identifies one impact entry and, by extension, a position in
// an inverted list. Lists are ordered by descending weight with ties
// broken by ascending doc id, so the total order "a before b" is
// a.W > b.W, or a.W == b.W and a.Doc < b.Doc.
type EntryKey struct {
	W   float64
	Doc model.DocID
}

// Before reports whether a precedes b in list order (closer to the head,
// i.e. higher impact).
func Before(a, b EntryKey) bool {
	if a.W != b.W {
		return a.W > b.W
	}
	return a.Doc < b.Doc
}

// Top returns the sentinel position before every possible entry. A
// local threshold at Top has consumed nothing.
func Top() EntryKey { return EntryKey{W: math.Inf(1), Doc: 0} }

// Bottom returns the sentinel position after every possible entry. A
// local threshold at Bottom has consumed the entire list, and any future
// arrival with a positive weight lands ahead of it.
func Bottom() EntryKey { return EntryKey{W: 0, Doc: math.MaxUint64} }

// Layout selects the physical representation of the inverted lists.
type Layout uint8

const (
	// LayoutBlocked (the default) stores each list as flat compressed
	// blocks: frame-of-reference doc ids and dictionary- or FOR-coded
	// weights at per-block fixed widths, with per-block max-weight,
	// min-weight and entry-count metadata routing seeks and predecessor
	// queries through a block directory. Roughly a third the bytes per
	// posting of the slice layout on natural workloads, which is what
	// makes 100x-larger windows fit in memory.
	LayoutBlocked Layout = iota
	// LayoutSlices stores each list as chunked sorted slices of raw
	// EntryKeys — the original layout, kept as the differential-twin
	// reference of the equivalence suites.
	LayoutSlices
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case LayoutBlocked:
		return "blocked"
	case LayoutSlices:
		return "slices"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// List is one inverted list: impact entries in list order. The slice
// layout backs it with a chunked sorted array (a tiered vector); the
// blocked layout with the compressed blocks of block.go. At realistic
// dictionary sizes the vast majority of lists hold a handful of entries
// (window·terms/dictionary ≈ 1 for the paper's configuration) and live
// in a single chunk or block with no per-entry allocation; the
// Zipf-head terms, which at a 100,000-document window appear in
// essentially every document, spread across chunks/blocks so that an
// insert or delete rewrites at most one chunk's or block's worth of
// memory instead of O(list) — the difference between microseconds and
// milliseconds per arrival at the paper's largest window.
type List struct {
	chunks [][]EntryKey // slice layout: each non-empty and sorted
	spare  []EntryKey   // slice layout: capacity recycled from the last emptied chunk
	blocks []block      // blocked layout: compressed blocks in list order
	length int
	// nraw counts the blocked layout's currently decoded blocks — the
	// point-mutation working set awaiting a repack (see Index.compact).
	nraw    int
	blocked bool
	// queued marks the list as sitting in the index's compaction queue.
	queued bool
}

// maxChunk bounds chunk size; a full chunk splits in two. 256 entries
// (4 KiB of EntryKeys) keeps the memmove within a couple of cache
// lines' worth of pages while keeping the chunk directory tiny.
const maxChunk = 256

func newList() *List        { return &List{} }
func newBlockedList() *List { return &List{blocked: true} }

func newListLayout(lay Layout) *List {
	return &List{blocked: lay == LayoutBlocked}
}

// Len returns the number of entries.
func (l *List) Len() int { return l.length }

// chunkFor returns the index of the chunk that does (or would) contain
// pos: the first chunk whose last element is not before pos, clamped to
// the final chunk.
func (l *List) chunkFor(pos EntryKey) int {
	n := len(l.chunks)
	c := sort.Search(n, func(i int) bool {
		ch := l.chunks[i]
		return !Before(ch[len(ch)-1], pos)
	})
	if c == n && n > 0 {
		c = n - 1
	}
	return c
}

// lowerBound locates the first entry not before pos as a (chunk,
// offset) pair; offset may equal the chunk length (insertion at the
// very end). Blocked lists route through the block directory instead:
// the per-block last-entry summaries find the one candidate block and
// the O(1) random access of the codec binary-searches inside it, so no
// block below the target is ever decoded.
func (l *List) lowerBound(pos EntryKey) (int, int) {
	if l.blocked {
		return l.blockBound(pos)
	}
	if len(l.chunks) == 0 {
		return 0, 0
	}
	c := l.chunkFor(pos)
	ch := l.chunks[c]
	i := sort.Search(len(ch), func(i int) bool { return !Before(ch[i], pos) })
	return c, i
}

// blockBound is lowerBound over the block directory.
func (l *List) blockBound(pos EntryKey) (int, int) {
	n := len(l.blocks)
	if n == 0 {
		return 0, 0
	}
	c := sort.Search(n, func(i int) bool { return !Before(l.blocks[i].last, pos) })
	if c == n {
		c = n - 1
	}
	b := &l.blocks[c]
	i := sort.Search(int(b.count), func(i int) bool { return !Before(b.at(i), pos) })
	return c, i
}

func (l *List) insert(e EntryKey) {
	if l.blocked {
		l.blockInsert(e)
		return
	}
	if len(l.chunks) == 0 {
		first := l.spare
		if first == nil {
			first = make([]EntryKey, 0, 8)
		}
		l.spare = nil
		l.chunks = append(l.chunks, append(first, e))
		l.length++
		return
	}
	c, i := l.lowerBound(e)
	ch := l.chunks[c]
	ch = append(ch, EntryKey{})
	copy(ch[i+1:], ch[i:])
	ch[i] = e
	l.chunks[c] = ch
	l.length++
	if len(ch) > maxChunk {
		// Split the full chunk in half; the right half is a fresh
		// allocation so the halves stop sharing growth.
		mid := len(ch) / 2
		right := append(make([]EntryKey, 0, maxChunk), ch[mid:]...)
		l.chunks[c] = ch[:mid:mid]
		l.chunks = append(l.chunks, nil)
		copy(l.chunks[c+2:], l.chunks[c+1:])
		l.chunks[c+1] = right
	}
}

func (l *List) delete(e EntryKey) bool {
	if l.blocked {
		return l.blockDelete(e)
	}
	if len(l.chunks) == 0 {
		return false
	}
	c, i := l.lowerBound(e)
	ch := l.chunks[c]
	if i >= len(ch) || ch[i] != e {
		return false
	}
	copy(ch[i:], ch[i+1:])
	l.chunks[c] = ch[:len(ch)-1]
	l.length--
	if len(l.chunks[c]) == 0 {
		if l.length == 0 {
			l.spare = l.chunks[c][:0]
		}
		l.chunks = append(l.chunks[:c], l.chunks[c+1:]...)
	}
	return true
}

// blockInsert is a point insert on the blocked layout: the target
// block is decoded once (block.decode — an O(block) one-time cost) and
// the splice itself is a sub-block memmove, exactly the cost profile of
// the slice layout's chunks. The block stays decoded through further
// point churn and is re-packed by the list's next merge rebuild.
func (l *List) blockInsert(e EntryKey) {
	l.length++
	if len(l.blocks) == 0 {
		l.blocks = append(l.blocks, rawBlock(append(make([]EntryKey, 0, 8), e)))
		l.nraw = 1
		return
	}
	c, i := l.blockBound(e)
	b := &l.blocks[c]
	if b.raw == nil {
		b.decode()
		l.nraw++
	}
	b.raw = append(b.raw, EntryKey{})
	copy(b.raw[i+1:], b.raw[i:])
	b.raw[i] = e
	if len(b.raw) > blockMax {
		// Split the full block in half; the right half is a fresh
		// allocation so the halves stop sharing growth.
		es := b.raw
		mid := len(es) / 2
		right := append(make([]EntryKey, 0, blockMax), es[mid:]...)
		l.blocks[c] = rawBlock(es[:mid:mid])
		l.blocks = append(l.blocks, block{})
		copy(l.blocks[c+2:], l.blocks[c+1:])
		l.blocks[c+1] = rawBlock(right)
		l.nraw++
		return
	}
	b.refresh()
}

// blockDelete is the point delete analog of blockInsert.
func (l *List) blockDelete(e EntryKey) bool {
	if len(l.blocks) == 0 {
		return false
	}
	c, i := l.blockBound(e)
	b := &l.blocks[c]
	if i >= int(b.count) || b.at(i) != e {
		return false
	}
	l.length--
	if b.count == 1 {
		if b.raw != nil {
			l.nraw--
		}
		l.blocks = append(l.blocks[:c], l.blocks[c+1:]...)
		if l.length == 0 {
			l.blocks = nil
		}
		return true
	}
	if b.raw == nil {
		b.decode()
		l.nraw++
	}
	b.raw = append(b.raw[:i], b.raw[i+1:]...)
	b.refresh()
	return true
}

// applyBatch applies one epoch's mutations to the list: ins entries are
// inserted and del entries removed, both given in list order. For small
// mutation sets it falls back to the point operations; once the batch is
// a meaningful fraction of the list it rewrites the list in a single
// merge pass, so B inserts into a hot Zipf-head list cost one O(list)
// sweep instead of B chunk searches and B memmoves — the index-level
// amortization of the epoch pipeline. Unmatched delete keys are
// skipped. scratch is reusable merge space (may be nil); the possibly
// grown scratch is returned for the caller to keep.
func (l *List) applyBatch(ins, del, scratch []EntryKey) []EntryKey {
	m := len(ins) + len(del)
	if m == 0 {
		return scratch
	}
	// Point operations win whenever the mutation set is small — in
	// absolute terms (each point op is a binary search plus one
	// sub-chunk memmove or block re-encode, allocation-free, and at
	// realistic dictionary sparsity almost every touched list takes a
	// handful of mutations) or relative to the list (the rebuild walks
	// everything). The rebuild pays off only once a large fraction of
	// the list changes in one epoch: one merge sweep and one allocation
	// replace m searches and m memmoves or re-encodes.
	if m < hotTermMutations || m*2 < l.length {
		for _, e := range del {
			l.delete(e)
		}
		for _, e := range ins {
			l.insert(e)
		}
		return scratch
	}
	merged := scratch[:0]
	ii, di := 0, 0
	take := func(e EntryKey) {
		for ii < len(ins) && Before(ins[ii], e) {
			merged = append(merged, ins[ii])
			ii++
		}
		for di < len(del) && Before(del[di], e) {
			di++ // delete key not present; tolerate and move on
		}
		if di < len(del) && del[di] == e {
			di++
			return
		}
		merged = append(merged, e)
	}
	if l.blocked {
		for bi := range l.blocks {
			b := &l.blocks[bi]
			for i := 0; i < int(b.count); i++ {
				take(b.at(i))
			}
		}
	} else {
		for _, ch := range l.chunks {
			for _, e := range ch {
				take(e)
			}
		}
	}
	merged = append(merged, ins[ii:]...)
	l.length = len(merged)
	if l.blocked {
		l.rebuildBlocks(merged)
		return merged
	}
	if l.length == 0 {
		l.chunks = nil
		return merged
	}
	// Re-chunk at half fill so subsequent point inserts have headroom
	// before forcing splits, matching the steady state split leaves.
	// All chunks slice one backing array (capacity-capped, so a growing
	// chunk copies out instead of clobbering its neighbor), keeping the
	// rebuild at a single persistent allocation.
	const target = maxChunk / 2
	backing := make([]EntryKey, len(merged))
	copy(backing, merged)
	l.chunks = l.chunks[:0]
	for start := 0; start < len(backing); start += target {
		end := start + target
		if end > len(backing) {
			end = len(backing)
		}
		l.chunks = append(l.chunks, backing[start:end:end])
	}
	return merged
}

// rebuildBlocks re-encodes the whole list from merged at blockTarget
// fill, reusing the block directory's capacity.
func (l *List) rebuildBlocks(merged []EntryKey) {
	l.nraw = 0
	if len(merged) == 0 {
		l.blocks = nil
		return
	}
	l.blocks = l.blocks[:0]
	for start := 0; start < len(merged); start += blockTarget {
		end := start + blockTarget
		if end > len(merged) {
			end = len(merged)
		}
		l.blocks = append(l.blocks, encodeBlock(merged[start:end]))
	}
}

// repack re-encodes the list's decoded blocks until none remain or
// budget (in entries) runs out, returning the remaining budget. Blocks
// keep their boundaries — repacking is local, never a list rewrite.
func (l *List) repack(budget int) int {
	for i := range l.blocks {
		if l.nraw == 0 || budget <= 0 {
			break
		}
		b := &l.blocks[i]
		if b.raw == nil {
			continue
		}
		budget -= len(b.raw)
		l.blocks[i] = encodeBlock(b.raw)
		l.nraw--
	}
	return budget
}

// Iterator walks a list from a position towards lower impacts. It stays
// valid only while the list is not modified. The current entry is
// decoded once per position into k, so the refill loops that re-read
// Key() many times per consumed entry pay the (blocked-layout) decode
// exactly once.
type Iterator struct {
	l  *List
	c  int // chunk/block index
	i  int // offset within chunk/block
	n  int // entries consumed inside the current block (blocked layout)
	ok bool
	k  EntryKey
	// buf caches a whole packed block decoded in one pass. A shallow
	// read (a refill resuming near its stored threshold) pays per-entry
	// extraction and never allocates; once a descent has consumed
	// seqDecodeAfter entries of one packed block it is a deep scan, and
	// decoding the rest of the block in one tight pass makes every
	// further Key a plain slice read.
	dc  int // block index buf holds
	buf []EntryKey
}

// seqDecodeAfter is the per-block consumption depth at which an
// iterator switches from per-entry extraction to whole-block decode.
const seqDecodeAfter = 16

// load decodes the entry at the iterator's position into the cache,
// clearing ok when the position is past the end.
func (it *Iterator) load() {
	l := it.l
	if l == nil {
		it.ok = false
		return
	}
	if l.blocked {
		if it.c >= len(l.blocks) {
			it.ok = false
			return
		}
		it.ok = true
		b := &l.blocks[it.c]
		if b.raw != nil {
			it.k = b.raw[it.i]
			return
		}
		if it.dc == it.c && len(it.buf) > 0 {
			it.k = it.buf[it.i]
			return
		}
		if it.n >= seqDecodeAfter {
			it.buf = b.appendTo(it.buf[:0])
			it.dc = it.c
			it.k = it.buf[it.i]
			return
		}
		it.k = b.at(it.i)
		return
	}
	if it.c >= len(l.chunks) || it.i >= len(l.chunks[it.c]) {
		it.ok = false
		return
	}
	it.ok = true
	it.k = l.chunks[it.c][it.i]
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.ok }

// Next advances towards the tail (lower impact).
func (it *Iterator) Next() {
	it.i++
	l := it.l
	if l.blocked {
		it.n++
		if it.c < len(l.blocks) && it.i >= int(l.blocks[it.c].count) {
			it.c++
			it.i = 0
			it.n = 0
		}
	} else {
		if it.c < len(l.chunks) && it.i >= len(l.chunks[it.c]) {
			it.c++
			it.i = 0
		}
	}
	it.load()
}

// Key returns the current entry; the iterator must be valid.
func (it *Iterator) Key() EntryKey { return it.k }

// SeekGE returns an iterator at the first entry at or after pos in list
// order — the resume point for a threshold stored as pos.
func (l *List) SeekGE(pos EntryKey) Iterator {
	if l.length == 0 {
		return Iterator{l: l}
	}
	c, i := l.lowerBound(pos)
	it := Iterator{l: l, c: c, i: i}
	if l.blocked {
		if c < len(l.blocks) && i >= int(l.blocks[c].count) {
			it.c++
			it.i = 0
		}
	} else if c < len(l.chunks) && i >= len(l.chunks[c]) {
		// Insertion point at the end of a chunk: the next real entry
		// starts the following chunk.
		it.c++
		it.i = 0
	}
	it.load()
	return it
}

// First returns an iterator at the highest-impact entry.
func (l *List) First() Iterator {
	it := Iterator{l: l}
	it.load()
	return it
}

// PredBefore returns the last entry strictly before pos in list order —
// the lowest-impact consumed entry relative to a threshold at pos —
// or ok == false when nothing precedes pos.
func (l *List) PredBefore(pos EntryKey) (EntryKey, bool) {
	if l.length == 0 {
		return EntryKey{}, false
	}
	c, i := l.lowerBound(pos)
	if l.blocked {
		if i == 0 {
			if c == 0 {
				return EntryKey{}, false
			}
			return l.blocks[c-1].last, true
		}
		return l.blocks[c].at(i - 1), true
	}
	if i == 0 {
		if c == 0 {
			return EntryKey{}, false
		}
		prev := l.chunks[c-1]
		return prev[len(prev)-1], true
	}
	return l.chunks[c][i-1], true
}

// Index is the document store plus the inverted lists over it.
type Index struct {
	*Store
	lists  map[model.TermID]*List
	layout Layout
	// nonEmpty counts lists with at least one entry. The term map
	// deliberately retains emptied lists (see RemoveOldest), so Terms()
	// would otherwise need a full map scan — a dictionary-sized cost on
	// what callers treat as a cheap gauge.
	nonEmpty int
	// batchCounts is ApplyBatch's reusable per-term mutation counter,
	// cleared after every call; batchScratch is the reusable merge
	// space of hot-list rebuilds, with batchLow counting consecutive
	// low-usage epochs towards a shrink (see shrinkBatchScratch).
	batchCounts  map[model.TermID]int32
	batchScratch []EntryKey
	batchLow     int
	// dirty queues blocked lists holding decoded (point-mutated) blocks
	// for the budgeted repack at the next epoch boundary (see compact).
	dirty []*List
}

// NewIndex returns an empty index in the default (blocked) layout. The
// seed is accepted for interface stability and reproducibility
// bookkeeping; both layouts are fully deterministic regardless.
func NewIndex(seed uint64) *Index { return NewIndexLayout(seed, LayoutBlocked) }

// NewIndexLayout returns an empty index in the given posting layout.
func NewIndexLayout(seed uint64, lay Layout) *Index {
	_ = seed
	return &Index{
		Store:  NewStore(),
		lists:  make(map[model.TermID]*List),
		layout: lay,
	}
}

// Layout returns the index's posting layout.
func (x *Index) Layout() Layout { return x.layout }

// List returns the inverted list for term t, or nil when no valid
// document contains t.
func (x *Index) List(t model.TermID) *List { return x.lists[t] }

// insertEntry posts one impact entry, maintaining the non-empty count.
func (x *Index) insertEntry(t model.TermID, e EntryKey) {
	l := x.lists[t]
	if l == nil {
		l = newListLayout(x.layout)
		x.lists[t] = l
	}
	if l.length == 0 {
		x.nonEmpty++
	}
	l.insert(e)
	x.markDirty(l)
}

// deleteEntry removes one impact entry, maintaining the non-empty count.
func (x *Index) deleteEntry(t model.TermID, e EntryKey) {
	if l := x.lists[t]; l != nil {
		if l.delete(e) && l.length == 0 {
			x.nonEmpty--
		}
		x.markDirty(l)
	}
}

// markDirty queues a blocked list whose point mutations left decoded
// blocks behind, so the next epoch boundary can repack it.
func (x *Index) markDirty(l *List) {
	if l.nraw > 0 && !l.queued {
		l.queued = true
		x.dirty = append(x.dirty, l)
	}
}

// compact re-encodes the decoded blocks queued by point mutations, at
// most budget entries' worth (one queue pass maximum). ApplyBatch calls
// it with a budget proportional to the epoch's own mutation work, so
// compaction can never dominate an epoch; whatever the budget leaves
// decoded stays queued for the following epochs. Under the epoch
// pipeline the index therefore converges to fully packed lists a
// bounded distance behind the write front, while an engine driving
// point mutations only (no epochs) keeps its mutation working set
// decoded — which is exactly the slice layout's cost, and the right
// trade for a list the next mutation is about to splice again.
func (x *Index) compact(budget int) {
	n := len(x.dirty)
	for i := 0; i < n && budget > 0 && len(x.dirty) > 0; i++ {
		l := x.dirty[0]
		x.dirty = x.dirty[1:]
		budget = l.repack(budget)
		if l.nraw > 0 {
			x.dirty = append(x.dirty, l) // budget ran out mid-list
		} else {
			l.queued = false
		}
	}
	if len(x.dirty) == 0 {
		x.dirty = nil
	}
}

// Insert adds an arriving document to the store and posts an impact
// entry into the inverted list of each of its terms. It fails on a
// duplicate document id.
func (x *Index) Insert(d *model.Document) error {
	if err := x.Store.Insert(d); err != nil {
		return err
	}
	for _, p := range d.Postings {
		x.insertEntry(p.Term, EntryKey{W: p.Weight, Doc: d.ID})
	}
	return nil
}

// RemoveOldest removes the FIFO head document and its impact entries,
// returning the removed document. It returns nil on an empty index.
// Emptied lists are kept in the term map: at realistic dictionary
// sparsity the same rare terms keep reappearing, and recreating a list
// per reappearance costs two allocations per term per event — measured
// as a third of the whole per-event index cost. The retained residue is
// bounded by the dictionary size.
func (x *Index) RemoveOldest() *model.Document {
	d := x.Store.RemoveOldest()
	if d == nil {
		return nil
	}
	for _, p := range d.Postings {
		x.deleteEntry(p.Term, EntryKey{W: p.Weight, Doc: d.ID})
	}
	return d
}

// Terms returns the number of terms with non-empty inverted lists, in
// O(1) via a counter maintained by Insert/RemoveOldest.
func (x *Index) Terms() int { return x.nonEmpty }

// BatchResult reports what one ApplyBatch call actually did.
type BatchResult struct {
	// Expired holds the documents that were valid before the epoch and
	// expired during it, in FIFO (arrival) order.
	Expired []*model.Document
	// Dropped is the number of leading arrivals that expired within the
	// same epoch (arrivals[:Dropped]); their postings were never indexed.
	// Expirations pop in FIFO order, so the dropped arrivals always form
	// a prefix of the batch and arrivals[Dropped:] are the survivors.
	Dropped int
	// Inserts and Deletes count the impact entries actually posted and
	// removed — same-epoch transients contribute to neither.
	Inserts int
	Deletes int
}

// ApplyBatch applies one epoch of the stream in a single pass: it
// appends the arriving documents to the FIFO store in order, pops
// expired documents from the head while expired says so (the window
// policy bound to the epoch's end time; it must be monotone in both
// arguments, as count- and time-based sliding windows are), and then
// mutates the inverted lists with the epoch's *net* postings, grouped
// per term so each touched list is edited in one pass. Documents that
// arrive and expire within the same epoch occupy window slots while the
// epoch plays out but are never posted to the lists.
//
// Validation is all-or-nothing: a duplicate document id (against the
// store or within the batch) fails the call before any mutation.
func (x *Index) ApplyBatch(arrivals []*model.Document, expired func(oldest *model.Document, count int) bool) (BatchResult, error) {
	var res BatchResult
	ids := make(map[model.DocID]struct{}, len(arrivals))
	for _, d := range arrivals {
		if _, dup := x.Store.Get(d.ID); dup {
			return res, fmt.Errorf("invindex: duplicate document id %d", d.ID)
		}
		if _, dup := ids[d.ID]; dup {
			return res, fmt.Errorf("invindex: duplicate document id %d within batch", d.ID)
		}
		ids[d.ID] = struct{}{}
	}
	for _, d := range arrivals {
		if err := x.Store.Insert(d); err != nil {
			return res, err // unreachable after validation
		}
	}
	for {
		oldest := x.Store.Oldest()
		if oldest == nil || !expired(oldest, x.Store.Len()) {
			break
		}
		x.Store.RemoveOldest()
		if _, transient := ids[oldest.ID]; transient {
			res.Dropped++
		} else {
			res.Expired = append(res.Expired, oldest)
		}
	}

	// Net posting mutations. Grouping a term's mutations to apply them
	// in one list pass only pays off for hot terms — Zipf-head lists
	// collecting a meaningful number of entries per epoch; at realistic
	// dictionary sparsity the vast majority of touched terms see one or
	// two mutations, where buffering costs more than the point
	// operations it saves. So a cheap counting pass finds the hot
	// terms, cold terms take direct point operations with no buffering,
	// and only hot terms are grouped and merge-applied.
	counts := x.batchCounts
	if counts == nil {
		counts = make(map[model.TermID]int32)
		x.batchCounts = counts
	}
	survivors := arrivals[res.Dropped:]
	for _, d := range survivors {
		for _, p := range d.Postings {
			counts[p.Term]++
		}
		res.Inserts += len(d.Postings)
	}
	for _, d := range res.Expired {
		for _, p := range d.Postings {
			counts[p.Term]++
		}
		res.Deletes += len(d.Postings)
	}
	type listMut struct{ ins, del []EntryKey }
	var muts map[model.TermID]listMut
	// hot reports whether term t's mutations are worth grouping: enough
	// of them in absolute terms AND a meaningful fraction of the
	// current list, mirroring applyBatch's rebuild condition — there is
	// no point buffering mutations that will be applied as point
	// operations anyway.
	hot := func(t model.TermID) bool {
		c := counts[t]
		if c < hotTermMutations {
			return false
		}
		l := x.lists[t]
		return l == nil || int(c)*2 >= l.length
	}
	for _, d := range res.Expired {
		for _, p := range d.Postings {
			e := EntryKey{W: p.Weight, Doc: d.ID}
			if !hot(p.Term) {
				x.deleteEntry(p.Term, e)
				continue
			}
			if muts == nil {
				muts = make(map[model.TermID]listMut)
			}
			mu := muts[p.Term]
			mu.del = append(mu.del, e)
			muts[p.Term] = mu
		}
	}
	for _, d := range survivors {
		for _, p := range d.Postings {
			e := EntryKey{W: p.Weight, Doc: d.ID}
			if !hot(p.Term) {
				x.insertEntry(p.Term, e)
				continue
			}
			if muts == nil {
				muts = make(map[model.TermID]listMut)
			}
			mu := muts[p.Term]
			mu.ins = append(mu.ins, e)
			muts[p.Term] = mu
		}
	}
	clear(counts)
	used := 0
	for t, mu := range muts {
		sort.Slice(mu.ins, func(i, j int) bool { return Before(mu.ins[i], mu.ins[j]) })
		sort.Slice(mu.del, func(i, j int) bool { return Before(mu.del[i], mu.del[j]) })
		l := x.lists[t]
		if l == nil {
			l = newListLayout(x.layout)
			x.lists[t] = l
		}
		wasEmpty := l.length == 0
		x.batchScratch = l.applyBatch(mu.ins, mu.del, x.batchScratch)
		if len(x.batchScratch) > used {
			used = len(x.batchScratch)
		}
		if wasEmpty && l.length > 0 {
			x.nonEmpty++
		} else if !wasEmpty && l.length == 0 {
			x.nonEmpty--
		}
	}
	x.shrinkBatchScratch(used)
	// Epoch boundary: repack what the epoch's point mutations (and any
	// earlier backlog) left decoded, at a budget tied to the epoch's own
	// mutation volume so compaction rides along instead of dominating.
	x.compact(math.MaxInt)
	return res, nil
}

// shrinkBatchScratch bounds the retained capacity of the hot-list merge
// scratch — the same policy core.Maintainer applies to its epoch
// buffers. One unusually large epoch (a burst, a catch-up replay) grows
// the scratch to the biggest list it rebuilt and, without this, that
// high-water capacity is pinned for the index's lifetime. After
// shrinkAfter consecutive epochs using less than a quarter of the
// retained capacity, the scratch is reallocated to twice the recent
// working size.
func (x *Index) shrinkBatchScratch(used int) {
	const (
		minCap      = 256
		shrinkAfter = 16
	)
	if cap(x.batchScratch) <= minCap || used*4 > cap(x.batchScratch) {
		x.batchLow = 0
		return
	}
	x.batchLow++
	if x.batchLow < shrinkAfter {
		return
	}
	x.batchLow = 0
	newCap := used * 2
	if newCap < minCap {
		newCap = minCap
	}
	x.batchScratch = make([]EntryKey, 0, newCap)
}

// listBytes estimates one list's heap footprint (struct, directories,
// entry storage; excludes the shared FIFO store and the term map).
func listBytes(l *List) uint64 {
	// Three slice headers, the length and the layout flag, padded.
	const listStruct = 88
	b := uint64(listStruct)
	if l.blocked {
		const blockStruct = 96 // measured unsafe.Sizeof(block{})
		b += uint64(cap(l.blocks)) * blockStruct
		for i := range l.blocks {
			b += l.blocks[i].bytes()
		}
		return b
	}
	b += uint64(cap(l.chunks))*24 + uint64(cap(l.spare))*16
	for _, ch := range l.chunks {
		b += uint64(cap(ch)) * 16
	}
	return b
}

// MemoryBytes estimates the index's heap footprint: the FIFO store plus
// every inverted list's storage and directory, plus the term map
// (estimated at Go's measured per-entry bucket cost).
func (x *Index) MemoryBytes() uint64 {
	const mapEntry = 48
	b := x.Store.MemoryBytes() + uint64(len(x.lists))*mapEntry
	for _, l := range x.lists {
		b += listBytes(l)
	}
	return b
}

// PostingBytes is the inverted-list portion of MemoryBytes: every
// list's struct, directory and entry storage, excluding the FIFO store
// and the term map. PostingBytes over PostingCount is the
// bytes-per-posting figure the window-sweep benchmark records.
func (x *Index) PostingBytes() uint64 {
	var b uint64
	for _, l := range x.lists {
		b += listBytes(l)
	}
	return b
}

// PostingCount is the total number of impact entries across all lists.
func (x *Index) PostingCount() int {
	n := 0
	for _, l := range x.lists {
		n += l.length
	}
	return n
}

// hotTermMutations is the per-term mutation count at which ApplyBatch
// switches from direct point operations to grouped one-pass
// application. It matches applyBatch's own small-set cutoff.
const hotTermMutations = 8

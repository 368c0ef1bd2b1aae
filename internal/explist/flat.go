package explist

import (
	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/query"
)

// flatEntry is one independently stored partial match. Entries form a
// per-item doubly linked list so deletion mid-scan is O(1).
type flatEntry struct {
	m          *match.Match
	prev, next Handle
	// minT is the death-time key: the minimum timestamp over the
	// match's bound data edges, computed incrementally at insert. A
	// window slide with watermark w kills exactly the entries with
	// minT < w (see SubList.DeleteExpired).
	minT graph.Timestamp
}

// flatTable holds a list's entries; a Handle is an index into it, and
// entry 0 is unused. A removed entry's slot goes on the free list at
// once: the independent backend never reads a casualty again.
type flatTable struct {
	entries []flatEntry
	free    Handle // chained through next
}

// flatItem is one expansion-list item storing independent match copies.
type flatItem struct {
	head, tail Handle
	count      int
}

// insert stores m at the tail of it and returns its handle.
func (t *flatTable) insert(it *flatItem, m *match.Match, minT graph.Timestamp) Handle {
	e := flatEntry{m: m, prev: it.tail, minT: minT}
	h := t.free
	if h != NoHandle {
		t.free = t.entries[h].next
		t.entries[h] = e
	} else {
		if len(t.entries) == 0 {
			t.entries = make([]flatEntry, 1)
		}
		h = Handle(len(t.entries))
		t.entries = append(t.entries, e)
	}
	if it.tail == NoHandle {
		it.head = h
	} else {
		t.entries[it.tail].next = h
	}
	it.tail = h
	it.count++
	return h
}

// remove unlinks h from it and frees its slot, dropping its match.
func (t *flatTable) remove(it *flatItem, h Handle) {
	e := &t.entries[h]
	if e.prev != NoHandle {
		t.entries[e.prev].next = e.next
	} else {
		it.head = e.next
	}
	if e.next != NoHandle {
		t.entries[e.next].prev = e.prev
	} else {
		it.tail = e.prev
	}
	*e = flatEntry{next: t.free}
	t.free = h
	it.count--
}

func (t *flatTable) each(it *flatItem, fn func(h Handle, m *match.Match) bool) {
	for h := it.head; h != NoHandle; h = t.entries[h].next {
		if !fn(h, t.entries[h].m) {
			return
		}
	}
}

// eachPath calls fn with the raw path of every entry of it: its data
// edges bound to the query edges of order, position by position.
func (t *flatTable) eachPath(it *flatItem, order []query.EdgeID, sc *Scratch, fn func(h Handle, path []graph.Edge) bool) {
	path := sc.path(len(order))
	for h := it.head; h != NoHandle; h = t.entries[h].next {
		m := t.entries[h].m
		for i, qe := range order {
			path[i] = m.Edges[qe]
		}
		if !fn(h, path) {
			return
		}
	}
}

// deleteWhere removes every entry of it that dies reports dead,
// appending the casualties to dst.
func (t *flatTable) deleteWhere(it *flatItem, dies func(*flatEntry) bool, dst []Handle) []Handle {
	for h := it.head; h != NoHandle; {
		next := t.entries[h].next
		if dies(&t.entries[h]) {
			t.remove(it, h)
			dst = append(dst, h)
		}
		h = next
	}
	return dst
}

// deleteContaining removes every entry whose match contains data edge id,
// appending the casualties to dst. This is the Timing-IND deletion path:
// without the MS-tree, every stored partial match must be inspected (the
// paper's motivation for the tree in Section IV).
func (t *flatTable) deleteContaining(it *flatItem, id graph.EdgeID, dst []Handle) []Handle {
	return t.deleteWhere(it, func(e *flatEntry) bool { return e.m.HasDataEdge(id) }, dst)
}

// deleteExpired removes every entry whose death-time key is below cut,
// appending the casualties to dst. Timing-IND keeps scan semantics (no
// tree to cascade through), but the scan runs once per window slide
// instead of once per expired edge, and the minT comparison replaces the
// per-edge HasDataEdge containment probe.
func (t *flatTable) deleteExpired(it *flatItem, cut graph.Timestamp, dst []Handle) []Handle {
	return t.deleteWhere(it, func(e *flatEntry) bool { return e.minT < cut }, dst)
}

func (t *flatTable) spaceBytes(items []flatItem) int64 {
	var b int64
	for i := range items {
		for h := items[i].head; h != NoHandle; h = t.entries[h].next {
			b += t.entries[h].m.SpaceBytes() + 32
		}
	}
	return b
}

// FlatSubList is the independent-storage SubList (Timing-IND): each item
// keeps full copies of its partial matches.
type FlatSubList struct {
	q     *query.Query
	sub   *query.TCSubquery
	table flatTable
	items []flatItem
}

// NewFlatSubList returns an independent-storage expansion list for sub.
func NewFlatSubList(q *query.Query, sub *query.TCSubquery) *FlatSubList {
	return &FlatSubList{q: q, sub: sub, items: make([]flatItem, sub.Len())}
}

// Depth implements SubList.
func (l *FlatSubList) Depth() int { return len(l.items) }

// Count implements SubList.
func (l *FlatSubList) Count(lvl int) int { return l.items[lvl-1].count }

// Each implements SubList.
func (l *FlatSubList) Each(lvl int, fn func(Handle, *match.Match) bool) {
	l.table.each(&l.items[lvl-1], fn)
}

// EachCandidate implements SubList. Independent storage keeps the
// paper's Timing-IND scan semantics: every stored match is visited and
// the caller's own key check does the narrowing.
func (l *FlatSubList) EachCandidate(lvl int, _ graph.VertexID, _ *Scratch, fn func(Handle, *match.Match) bool) {
	l.table.each(&l.items[lvl-1], fn)
}

// EachJoinCandidate implements SubList: a scan of the last item, each
// path read from its stored copy.
func (l *FlatSubList) EachJoinCandidate(_ uint64, sc *Scratch, fn func(Handle, []graph.Edge) bool) {
	l.table.eachPath(&l.items[len(l.items)-1], l.sub.Seq, sc, fn)
}

// SetJoinKey implements SubList as a no-op: the scan backend has no
// index to key.
func (l *FlatSubList) SetJoinKey([]query.VertexID) {}

// Materialize implements SubList.
func (l *FlatSubList) Materialize(_ int, h Handle) *match.Match {
	return l.table.entries[h].m.Clone()
}

// Insert implements SubList.
func (l *FlatSubList) Insert(lvl int, parent Handle, e graph.Edge) Handle {
	var m *match.Match
	minT := e.Time
	if parent == NoHandle {
		m = match.New(l.q)
	} else {
		pe := &l.table.entries[parent]
		m = pe.m.Clone()
		minT = min(minT, pe.minT)
	}
	m.Bind(l.q, l.sub.Seq[lvl-1], e)
	return l.table.insert(&l.items[lvl-1], m, minT)
}

// DeleteLevel implements SubList. Independent storage finds casualties by
// scanning for edge containment; parent casualties are implied because an
// extension of a match containing the expired edge also contains it.
func (l *FlatSubList) DeleteLevel(lvl int, edgeID graph.EdgeID, _, dst []Handle) []Handle {
	return l.table.deleteContaining(&l.items[lvl-1], edgeID, dst)
}

// DeleteExpired implements SubList: one scan of the item per slide.
func (l *FlatSubList) DeleteExpired(lvl int, watermark graph.Timestamp, _, dst []Handle) []Handle {
	return l.table.deleteExpired(&l.items[lvl-1], watermark, dst)
}

// SpaceBytes implements SubList.
func (l *FlatSubList) SpaceBytes() int64 { return l.table.spaceBytes(l.items) }

// FlatGlobalList is the independent-storage GlobalList.
type FlatGlobalList struct {
	q     *query.Query
	dec   *query.Decomposition
	subs  []*FlatSubList
	table flatTable
	items []flatItem // index 0 unused; items 2..k at [1..k-1]
	// order is item k's path order, and a prefix of it item lvl's;
	// ends[lvl] is item lvl's path length.
	order []query.EdgeID
	ends  []int
}

// NewFlatGlobalList returns an independent-storage L₀ over the
// decomposition's sub-lists, subs[x-1] storing Q^x.
func NewFlatGlobalList(q *query.Query, dec *query.Decomposition, subs []*FlatSubList) *FlatGlobalList {
	return &FlatGlobalList{q: q, dec: dec, subs: subs, items: make([]flatItem, dec.K()),
		order: GlobalPath(dec, dec.K()), ends: pathEnds(dec)}
}

// K implements GlobalList.
func (g *FlatGlobalList) K() int { return g.dec.K() }

// Count implements GlobalList.
func (g *FlatGlobalList) Count(lvl int) int { return g.items[lvl-1].count }

// Each implements GlobalList.
func (g *FlatGlobalList) Each(lvl int, fn func(Handle, *match.Match) bool) {
	g.table.each(&g.items[lvl-1], fn)
}

// EachCandidate implements GlobalList: a scan (Timing-IND semantics),
// each path read from its stored copy.
func (g *FlatGlobalList) EachCandidate(lvl int, _ uint64, sc *Scratch, fn func(Handle, []graph.Edge) bool) {
	g.table.eachPath(&g.items[lvl-1], g.order[:g.ends[lvl]], sc, fn)
}

// SetJoinKeys implements GlobalList as a no-op.
func (g *FlatGlobalList) SetJoinKeys([][]query.VertexID) {}

// Materialize implements GlobalList.
func (g *FlatGlobalList) Materialize(_ int, h Handle) *match.Match {
	return g.table.entries[h].m.Clone()
}

// Insert implements GlobalList. The level-2 parent is an entry of the
// first sub-list's last item (L₀¹); deeper parents are this list's, and
// sub is an entry of sub-list lvl's last item.
func (g *FlatGlobalList) Insert(lvl int, parent, sub Handle) Handle {
	pt := &g.table
	if lvl == 2 {
		pt = &g.subs[0].table
	}
	pe, se := &pt.entries[parent], &g.subs[lvl-1].table.entries[sub]
	return g.table.insert(&g.items[lvl-1], pe.m.Merge(se.m), min(pe.minT, se.minT))
}

// DeleteLevel implements GlobalList: scan for edge containment.
func (g *FlatGlobalList) DeleteLevel(lvl int, _, _ []Handle, edgeID graph.EdgeID, dst []Handle) []Handle {
	return g.table.deleteContaining(&g.items[lvl-1], edgeID, dst)
}

// DeleteExpired implements GlobalList: one scan of the item per slide.
func (g *FlatGlobalList) DeleteExpired(lvl int, watermark graph.Timestamp, _, _, dst []Handle) []Handle {
	return g.table.deleteExpired(&g.items[lvl-1], watermark, dst)
}

// SpaceBytes implements GlobalList.
func (g *FlatGlobalList) SpaceBytes() int64 { return g.table.spaceBytes(g.items) }

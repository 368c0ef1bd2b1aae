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
	prev, next *flatEntry
	// minT is the death-time key: the minimum timestamp over the
	// match's bound data edges, computed incrementally at insert. A
	// window slide with watermark w kills exactly the entries with
	// minT < w (see SubList.DeleteExpired).
	minT graph.Timestamp
}

// flatItem is one expansion-list item storing independent match copies.
type flatItem struct {
	head, tail *flatEntry
	count      int
}

func (it *flatItem) insert(m *match.Match) *flatEntry {
	e := &flatEntry{m: m}
	if it.tail == nil {
		it.head, it.tail = e, e
	} else {
		it.tail.next = e
		e.prev = it.tail
		it.tail = e
	}
	it.count++
	return e
}

func (it *flatItem) remove(e *flatEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		it.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		it.tail = e.prev
	}
	it.count--
}

func (it *flatItem) each(fn func(h Handle, m *match.Match) bool) {
	for e := it.head; e != nil; e = e.next {
		if !fn(e, e.m) {
			return
		}
	}
}

// deleteContaining removes every entry whose match contains data edge id,
// appending the casualties to dst. This is the Timing-IND deletion path:
// without the MS-tree, every stored partial match must be inspected (the
// paper's motivation for the tree in Section IV).
func (it *flatItem) deleteContaining(id graph.EdgeID, dst []Handle) []Handle {
	for e := it.head; e != nil; {
		next := e.next
		if e.m.HasDataEdge(id) {
			it.remove(e)
			dst = append(dst, e)
		}
		e = next
	}
	return dst
}

// deleteExpired removes every entry whose death-time key is below cut,
// appending the casualties to dst. Timing-IND keeps scan semantics (no
// tree to cascade through), but the scan runs once per window slide
// instead of once per expired edge, and the minT comparison replaces the
// per-edge HasDataEdge containment probe.
func (it *flatItem) deleteExpired(cut graph.Timestamp, dst []Handle) []Handle {
	for e := it.head; e != nil; {
		next := e.next
		if e.minT < cut {
			it.remove(e)
			dst = append(dst, e)
		}
		e = next
	}
	return dst
}

func (it *flatItem) spaceBytes() int64 {
	var b int64
	for e := it.head; e != nil; e = e.next {
		b += e.m.SpaceBytes() + 32
	}
	return b
}

// FlatSubList is the independent-storage SubList (Timing-IND): each item
// keeps full copies of its partial matches.
type FlatSubList struct {
	q     *query.Query
	sub   *query.TCSubquery
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
	l.items[lvl-1].each(fn)
}

// EachCandidate implements SubList. Independent storage keeps the
// paper's Timing-IND scan semantics: every stored match is visited and
// the caller's own key check does the narrowing.
func (l *FlatSubList) EachCandidate(lvl int, _ graph.VertexID, _ *Scratch, fn func(Handle, *match.Match) bool) {
	l.items[lvl-1].each(fn)
}

// EachJoinCandidate implements SubList: a scan of the last item.
func (l *FlatSubList) EachJoinCandidate(_ uint64, _ *Scratch, fn func(Handle, *match.Match) bool) {
	l.items[len(l.items)-1].each(fn)
}

// SetJoinKey implements SubList as a no-op: the scan backend has no
// index to key.
func (l *FlatSubList) SetJoinKey([]query.VertexID) {}

// Materialize implements SubList.
func (l *FlatSubList) Materialize(_ int, h Handle) *match.Match {
	return h.(*flatEntry).m.Clone()
}

// Insert implements SubList.
func (l *FlatSubList) Insert(lvl int, parent Handle, e graph.Edge) Handle {
	var m *match.Match
	minT := e.Time
	if parent == nil {
		m = match.New(l.q)
	} else {
		pe := parent.(*flatEntry)
		m = pe.m.Clone()
		if pe.minT < minT {
			minT = pe.minT
		}
	}
	m.Bind(l.q, l.sub.Seq[lvl-1], e)
	ne := l.items[lvl-1].insert(m)
	ne.minT = minT
	return ne
}

// DeleteLevel implements SubList. Independent storage finds casualties by
// scanning for edge containment; parent casualties are implied because an
// extension of a match containing the expired edge also contains it.
func (l *FlatSubList) DeleteLevel(lvl int, edgeID graph.EdgeID, _, dst []Handle) []Handle {
	return l.items[lvl-1].deleteContaining(edgeID, dst)
}

// DeleteExpired implements SubList: one scan of the item per slide.
func (l *FlatSubList) DeleteExpired(lvl int, watermark graph.Timestamp, _, dst []Handle) []Handle {
	return l.items[lvl-1].deleteExpired(watermark, dst)
}

// SpaceBytes implements SubList.
func (l *FlatSubList) SpaceBytes() int64 {
	var b int64
	for i := range l.items {
		b += l.items[i].spaceBytes()
	}
	return b
}

// FlatGlobalList is the independent-storage GlobalList.
type FlatGlobalList struct {
	q     *query.Query
	dec   *query.Decomposition
	items []flatItem // index 0 unused; items 2..k at [1..k-1]
}

// NewFlatGlobalList returns an independent-storage L₀.
func NewFlatGlobalList(q *query.Query, dec *query.Decomposition) *FlatGlobalList {
	return &FlatGlobalList{q: q, dec: dec, items: make([]flatItem, dec.K())}
}

// K implements GlobalList.
func (g *FlatGlobalList) K() int { return g.dec.K() }

// Count implements GlobalList.
func (g *FlatGlobalList) Count(lvl int) int { return g.items[lvl-1].count }

// Each implements GlobalList.
func (g *FlatGlobalList) Each(lvl int, fn func(Handle, *match.Match) bool) {
	g.items[lvl-1].each(fn)
}

// EachCandidate implements GlobalList: a scan (Timing-IND semantics).
func (g *FlatGlobalList) EachCandidate(lvl int, _ uint64, _ *Scratch, fn func(Handle, *match.Match) bool) {
	g.items[lvl-1].each(fn)
}

// SetJoinKeys implements GlobalList as a no-op.
func (g *FlatGlobalList) SetJoinKeys([][]query.VertexID) {}

// Materialize implements GlobalList.
func (g *FlatGlobalList) Materialize(_ int, h Handle) *match.Match {
	return h.(*flatEntry).m.Clone()
}

// Insert implements GlobalList. Both handles are flat entries (the level
// 2 parent comes from the first sub-list's last item, which for the flat
// backend is also a flat entry).
func (g *FlatGlobalList) Insert(lvl int, parent, sub Handle) Handle {
	pe := parent.(*flatEntry)
	se := sub.(*flatEntry)
	m := pe.m.Merge(se.m)
	ne := g.items[lvl-1].insert(m)
	ne.minT = pe.minT
	if se.minT < ne.minT {
		ne.minT = se.minT
	}
	return ne
}

// DeleteLevel implements GlobalList: scan for edge containment.
func (g *FlatGlobalList) DeleteLevel(lvl int, _, _ []Handle, edgeID graph.EdgeID, dst []Handle) []Handle {
	return g.items[lvl-1].deleteContaining(edgeID, dst)
}

// DeleteExpired implements GlobalList: one scan of the item per slide.
func (g *FlatGlobalList) DeleteExpired(lvl int, watermark graph.Timestamp, _, _, dst []Handle) []Handle {
	return g.items[lvl-1].deleteExpired(watermark, dst)
}

// SpaceBytes implements GlobalList.
func (g *FlatGlobalList) SpaceBytes() int64 {
	var b int64
	for i := range g.items {
		b += g.items[i].spaceBytes()
	}
	return b
}

package mstree

import (
	"math"
	"unsafe"

	"timingsubg/internal/graph"
)

// Tree is a match-store tree over a fixed number of levels. A Tree backs
// one expansion list: level j stores the partial matches of the list's
// j-th item. A sub-tree's nodes carry data edges (InsertEdge); a global
// L₀ tree's nodes carry submatch leaves of the sub-trees (InsertSub).
type Tree struct {
	levels []level
	// first is sub-list 1's tree when t is a global tree: its last
	// level is L₀¹, the level of t's level-2 parents. Nil in sub-trees.
	first *Tree
}

type level struct {
	// nodes is the slab; edges (sub-trees) or subs (global trees) is the
	// payload slab beside it, the same length. Slot 0 of each is unused.
	nodes []node
	edges []edgeSlot
	subs  []subSlot
	// head and tail end the level list; free heads the free list.
	head, tail, free Slot
	count            int
	// depIdx buckets this level's live nodes by the submatch leaf they
	// reference (global trees only). Every death path unlinks the node
	// from its bucket, so it stays live-only.
	depIdx depIndex
	// joinIdx buckets this level's live nodes by join key — the binding
	// of the level's connecting query vertex (sub-trees) or the
	// shared-binding fingerprint of the level's join (last items and
	// global levels). It makes the INSERT probe O(candidates) instead of
	// O(level). Unused until SetLevelKey installs keyOf; cleaned as
	// nodes die.
	joinIdx joinTable
	// keyOf computes a node's join key from its payload and its
	// ancestors' (parent/sub chains); set once before any insert.
	keyOf func(Slot) uint64
}

// New returns a sub-tree with the given number of levels (≥ 1).
func New(depth int) *Tree {
	return &Tree{levels: make([]level, depth)}
}

// NewGlobal returns a global L₀ tree with the given number of levels
// (≥ 2) over sub-list 1's tree first. Its level 1 stays empty: L₀¹ is
// first's last level.
func NewGlobal(depth int, first *Tree) *Tree {
	return &Tree{levels: make([]level, depth), first: first}
}

// Depth returns the number of levels.
func (t *Tree) Depth() int { return len(t.levels) }

// SetLevelKey installs the join-key function for level lvl and enables
// its join index. It must be called before any insert reaches the level
// (expansion lists configure their trees at construction). keyOf is
// handed the new node's slot once its payload and parent are set; it
// may read them and its ancestors' through Parent, Edge and Sub.
func (t *Tree) SetLevelKey(lvl int, keyOf func(Slot) uint64) {
	t.levels[lvl-1].keyOf = keyOf
}

// Count returns the number of live nodes (= partial matches) at level
// lvl (1-based).
func (t *Tree) Count(lvl int) int { return t.levels[lvl-1].count }

// Nodes returns the total number of live nodes.
func (t *Tree) Nodes() int64 {
	var n int64
	for i := range t.levels {
		n += int64(t.levels[i].count)
	}
	return n
}

// Parent returns the parent of slot s at level lvl: a slot of level
// lvl−1, or of sub-list 1's last level for a global level-2 node; NoSlot
// at level 1.
func (t *Tree) Parent(lvl int, s Slot) Slot { return t.levels[lvl-1].nodes[s].parent }

// Edge returns the data edge of sub-tree slot s at level lvl. Its
// FromLabel and ToLabel are NoLabel: the tree does not store them.
func (t *Tree) Edge(lvl int, s Slot) graph.Edge {
	e := &t.levels[lvl-1].edges[s]
	return graph.Edge{ID: e.id, From: e.from, To: e.to, EdgeLabel: e.label, Time: e.time}
}

// Sub returns the submatch leaf of global slot s at level lvl: a slot of
// sub-list lvl's last level.
func (t *Tree) Sub(lvl int, s Slot) Slot { return t.levels[lvl-1].subs[s].sub }

// PathEdges fills buf (reallocating if needed) with the data edges along
// the path from the root to sub-tree slot s at level lvl, index 0 being
// the level-1 edge, and returns the slice. Endpoint labels are NoLabel,
// as in Edge.
func (t *Tree) PathEdges(lvl int, s Slot, buf []graph.Edge) []graph.Edge {
	if cap(buf) < lvl {
		buf = make([]graph.Edge, lvl)
	}
	buf = buf[:lvl]
	for i := lvl - 1; i >= 0; i-- {
		lv := &t.levels[i]
		e := &lv.edges[s]
		buf[i] = graph.Edge{ID: e.id, From: e.from, To: e.to, EdgeLabel: e.label, Time: e.time}
		s = lv.nodes[s].parent
	}
	return buf
}

// firstSlots is a slab's first capacity, slot 0 included.
const firstSlots = 8

// alloc returns a zeroed node slot for a new node at lv, growing the
// slab only when no slot is free. The caller stores the payload with
// put before anything reads it.
func (lv *level) alloc() Slot {
	if lv.count == 0 && len(lv.nodes) > 1 {
		// Release policy: an emptied level restarts in slot order.
		lv.nodes, lv.edges, lv.subs = lv.nodes[:1], lv.edges[:min(len(lv.edges), 1)], lv.subs[:min(len(lv.subs), 1)]
		lv.free = NoSlot
	}
	if s := lv.free; s != NoSlot {
		lv.free = lv.nodes[s].nextLvl
		lv.nodes[s] = node{}
		return s
	}
	if len(lv.nodes) == 0 {
		lv.nodes = make([]node, 1, firstSlots)
	}
	if uint64(len(lv.nodes)) > math.MaxUint32 {
		panic("mstree: level holds 2³² slots")
	}
	lv.nodes = append(lv.nodes, node{})
	return Slot(len(lv.nodes) - 1)
}

// put stores v at slot s of a payload slab kept the same length as its
// level's nodes slab: s is either a reused slot or the one alloc just
// appended.
func put[T any](slab []T, s Slot, v T) []T {
	if int(s) < len(slab) {
		slab[s] = v
		return slab
	}
	if len(slab) == 0 {
		slab = make([]T, 1, firstSlots)
	}
	return append(slab, v)
}

// InsertEdge adds a node carrying data edge e at level lvl under parent
// (NoSlot for level 1), which must be live, and returns its slot. e's
// endpoint labels are not stored.
func (t *Tree) InsertEdge(lvl int, parent Slot, e graph.Edge) Slot {
	lv := &t.levels[lvl-1]
	s := lv.alloc()
	lv.edges = put(lv.edges, s, edgeSlot{id: e.ID, from: e.From, to: e.To, time: e.Time, label: e.EdgeLabel})
	t.attach(lvl, s, parent)
	return s
}

// InsertSub adds a global-tree node at level lvl (≥ 2) referencing
// submatch leaf sub of sub-list lvl, under parent (a leaf of sub-list 1
// when lvl == 2, because the first global item aliases the first
// sub-list's last item). Both must be live.
func (t *Tree) InsertSub(lvl int, parent, sub Slot) Slot {
	lv := &t.levels[lvl-1]
	s := lv.alloc()
	lv.subs = put(lv.subs, s, subSlot{sub: sub})
	t.attach(lvl, s, parent)
	lv.addDep(sub, s)
	return s
}

// parentLevel returns the level holding the parents of level lvl's
// nodes (lvl ≥ 2).
func (t *Tree) parentLevel(lvl int) *level {
	if lvl == 2 && t.first != nil {
		return &t.first.levels[len(t.first.levels)-1]
	}
	return &t.levels[lvl-2]
}

// attach links slot s of level lvl at the tail of its level list, at
// the head of parent's child list and into its level's join index.
func (t *Tree) attach(lvl int, s, parent Slot) {
	lv := &t.levels[lvl-1]
	lv.nodes[s].parent = parent
	if lv.tail == NoSlot {
		lv.head = s
	} else {
		lv.nodes[lv.tail].nextLvl = s
		lv.nodes[s].prevLvl = lv.tail
	}
	lv.tail = s
	lv.count++
	if lv.keyOf != nil {
		k := lv.keyOf(s)
		lv.nodes[s].joinKey = k
		lv.addKey(k, s)
	}
	if parent != NoSlot {
		p := &t.parentLevel(lvl).nodes[parent]
		if p.firstChild != NoSlot {
			lv.nodes[p.firstChild].prevSib = s
		}
		lv.nodes[s].nextSib = p.firstChild
		p.firstChild = s
	}
}

// Each calls fn for every live node at level lvl until fn returns false.
func (t *Tree) Each(lvl int, fn func(Slot) bool) {
	lv := &t.levels[lvl-1]
	for s := lv.head; s != NoSlot; s = lv.nodes[s].nextLvl {
		if !fn(s) {
			return
		}
	}
}

// EachCandidate calls fn for every live node at level lvl whose join key
// equals key, until fn returns false. On a level without a join index it
// degrades to Each — the caller's filter still sees every node, just
// without the index narrowing.
func (t *Tree) EachCandidate(lvl int, key uint64, fn func(Slot) bool) {
	lv := &t.levels[lvl-1]
	if lv.keyOf == nil {
		t.Each(lvl, fn)
		return
	}
	// Single-bucket fast path: when every live node shares one join key
	// (selectivity ≈ 1, NetworkFlow-shaped bindings) the lone bucket IS
	// the level, and the table probe is pure overhead — serve the
	// contiguous level list instead. See DESIGN.md §15 for the
	// crossover this pins (BenchmarkInsertIngest had indexed at 0.95×
	// scan on NetworkFlow before this path).
	if lv.joinIdx.live == 1 {
		if lv.head != NoSlot && lv.nodes[lv.head].joinKey != key {
			return // the one key present is not the probe's key
		}
		t.Each(lvl, fn)
		return
	}
	for s := lv.joinIdx.lookup(key); s != NoSlot; s = lv.nodes[s].key.next {
		if !fn(s) {
			return
		}
	}
}

// DeleteLevel removes, at level lvl (≥ 2) of t, every child of the
// slots in parents and every node whose submatch leaf is in deadSubs. It
// appends the removed slots to dst and returns it, so the caller can
// cascade to the next level. This mirrors Algorithm 2's level-by-level
// scan. parents must be the previous level's casualties from the same
// sweep, each listed once: a removed node's child list then holds only
// live nodes, because every other removal path unlinks the node from
// it.
func (t *Tree) DeleteLevel(lvl int, parents, deadSubs, dst []Slot) []Slot {
	lv, pl := &t.levels[lvl-1], t.parentLevel(lvl)
	for _, p := range parents {
		for c := pl.nodes[p].firstChild; c != NoSlot; c = lv.nodes[c].nextSib {
			lv.kill(c)
			if t.first != nil {
				lv.removeDep(lv.subs[c].sub, c)
			}
			dst = append(dst, c)
		}
	}
	for _, sub := range deadSubs {
		dst = t.killBucket(lvl, sub, dst)
	}
	return dst
}

// killBucket detaches sub's whole dependency bucket at level lvl and
// removes every node on it, appending each to dst.
func (t *Tree) killBucket(lvl int, sub Slot, dst []Slot) []Slot {
	lv := &t.levels[lvl-1]
	for s := lv.takeDep(sub).head; s != NoSlot; {
		next := lv.subs[s].dep.next
		lv.subs[s].dep = link{}
		t.unlinkSiblings(lvl, s)
		lv.kill(s)
		dst = append(dst, s)
		s = next
	}
	return dst
}

// ExpirePrefix removes every level-1 node of sub-tree t whose edge is
// older than cut, appending their slots to dst. Level 1 is in arrival
// order (attach appends at the tail, and edges arrive in timestamp
// order), so the expired nodes are a prefix of its list; the caller
// cascades them to the deeper levels with DeleteLevel.
func (t *Tree) ExpirePrefix(cut graph.Timestamp, dst []Slot) []Slot {
	lv := &t.levels[0]
	for s := lv.head; s != NoSlot && lv.edges[s].time < cut; s = lv.head {
		lv.kill(s) // a level-1 node has no parent, hence no siblings
		dst = append(dst, s)
	}
	return dst
}

// ExpireEdge removes the level-1 node of sub-tree t that carries data
// edge id, appending its slot to dst; the caller cascades it to the
// deeper levels with DeleteLevel. It serves edge-at-a-time expiry, which
// hands over the window's oldest edge: every older edge has already
// gone, and with it every path it started, so id's level-1 node, if
// any, is level 1's head (level 1 is in arrival order). No deeper node
// carries id: a timing sequence binds its edges in time order, so such
// a node's level-1 ancestor carries an older edge and was removed with
// it.
func (t *Tree) ExpireEdge(id graph.EdgeID, dst []Slot) []Slot {
	lv := &t.levels[0]
	for s := lv.head; s != NoSlot && lv.edges[s].id == id; s = lv.head {
		lv.kill(s)
		dst = append(dst, s)
	}
	return dst
}

// kill removes slot s from its level list and join-index bucket and
// puts it on the free list, leaving its parent, sibling and child links,
// its payload and its dependency bucket to the caller: a removed
// parent's child list must stay traversable while it is being consumed,
// and it is consumed exactly once, so the stale sibling links are never
// observed again.
func (lv *level) kill(s Slot) {
	n := &lv.nodes[s]
	if n.prevLvl != NoSlot {
		lv.nodes[n.prevLvl].nextLvl = n.nextLvl
	} else {
		lv.head = n.nextLvl
	}
	if n.nextLvl != NoSlot {
		lv.nodes[n.nextLvl].prevLvl = n.prevLvl
	} else {
		lv.tail = n.prevLvl
	}
	if lv.keyOf != nil {
		lv.removeKey(n.joinKey, s)
	}
	n.nextLvl, n.prevLvl = lv.free, NoSlot
	lv.free = s
	lv.count--
}

// unlinkSiblings detaches slot s of level lvl from its parent's child
// list.
func (t *Tree) unlinkSiblings(lvl int, s Slot) {
	lv := &t.levels[lvl-1]
	n := &lv.nodes[s]
	if n.prevSib != NoSlot {
		lv.nodes[n.prevSib].nextSib = n.nextSib
	} else if n.parent != NoSlot {
		if p := &t.parentLevel(lvl).nodes[n.parent]; p.firstChild == s {
			p.firstChild = n.nextSib
		}
	}
	if n.nextSib != NoSlot {
		lv.nodes[n.nextSib].prevSib = n.prevSib
	}
}

// The sizes SpaceBytes and ReservedBytes count: a node, the two
// payloads, a join-table entry and a dependency bucket.
const (
	nodeBytes  = int64(unsafe.Sizeof(node{}))
	edgeBytes  = int64(unsafe.Sizeof(edgeSlot{}))
	subBytes   = int64(unsafe.Sizeof(subSlot{}))
	joinEntryB = int64(unsafe.Sizeof(joinEntry{}))
	depEntryB  = int64(unsafe.Sizeof(bucket{}))
)

// SpaceBytes returns the resident size of t's live state: live slots,
// live join-table entries and live dependency buckets.
func (t *Tree) SpaceBytes() int64 {
	slot := nodeBytes + edgeBytes
	if t.first != nil {
		slot = nodeBytes + subBytes
	}
	var b int64
	for i := range t.levels {
		lv := &t.levels[i]
		b += int64(lv.count)*slot + int64(lv.joinIdx.live)*joinEntryB + int64(lv.depIdx.live)*depEntryB
	}
	return b
}

// ReservedBytes returns the capacity of t's slabs and index tables in
// bytes, live or not: what the release policy keeps.
func (t *Tree) ReservedBytes() int64 {
	var b int64
	for i := range t.levels {
		lv := &t.levels[i]
		b += int64(cap(lv.nodes))*nodeBytes + int64(cap(lv.edges))*edgeBytes + int64(cap(lv.subs))*subBytes +
			int64(cap(lv.joinIdx.entries))*joinEntryB + int64(cap(lv.depIdx.buckets))*depEntryB
	}
	return b
}

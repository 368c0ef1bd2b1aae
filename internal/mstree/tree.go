package mstree

import (
	"unsafe"

	"timingsubg/internal/graph"
)

// Tree is a match-store tree over a fixed number of levels. A Tree backs
// one expansion list: level j stores the partial matches of the list's
// j-th item. The same structure backs both sub-trees (nodes carry data
// edges) and global L₀ trees (nodes carry Sub pointers into sub-trees).
type Tree struct {
	levels []level
}

type level struct {
	head, tail *Node
	count      int
	// edgeIdx maps a data edge ID to this level's live nodes carrying
	// that edge; depIdx maps a foreign submatch leaf to this level's live
	// nodes whose Sub points at it (global trees only). Every death path
	// unlinks the node from its bucket, so both stay live-only.
	edgeIdx index[graph.EdgeID]
	depIdx  index[*Node]
	// joinIdx buckets this level's live nodes by join key — the binding
	// of the level's connecting query vertex (sub-trees) or the
	// shared-binding fingerprint of the level's join (last items and
	// global levels). It makes the INSERT probe O(candidates) instead of
	// O(level). Unused until SetLevelKey installs keyOf; cleaned as
	// nodes die.
	joinIdx index[uint64]
	// keyOf computes a node's join key from its immutable payload
	// (parent/sub chains); set once before any insert.
	keyOf func(*Node) uint64
}

// Slots of Node.links: which link pair chains an index's buckets.
const (
	keyLink = iota // joinIdx
	refLink        // edgeIdx or depIdx
)

// link is one intrusive doubly linked list position.
type link struct{ next, prev *Node }

// bucket is one index key's node list, threaded through the nodes' own
// links and appended at the tail, so iteration is insertion order.
type bucket struct{ head, tail *Node }

// index maps each key to the intrusive list of the level's live nodes
// under it. Adding or removing a node allocates nothing beyond the map
// entry of a new key.
type index[K comparable] struct {
	buckets map[K]bucket
	slot    int // keyLink or refLink
}

func newIndex[K comparable](slot int) index[K] {
	return index[K]{buckets: make(map[K]bucket), slot: slot}
}

// add appends n to k's bucket.
func (ix *index[K]) add(k K, n *Node) {
	b, ok := ix.buckets[k]
	if !ok {
		ix.buckets[k] = bucket{n, n}
		return
	}
	b.tail.links[ix.slot].next = n
	n.links[ix.slot].prev = b.tail
	b.tail = n
	ix.buckets[k] = b
}

// remove unlinks n from k's bucket, deleting the key when the bucket
// empties. An interior node leaves the bucket's ends unchanged, so only
// a node at either end touches the map.
func (ix *index[K]) remove(k K, n *Node) {
	l := &n.links[ix.slot]
	if l.prev != nil && l.next != nil {
		l.prev.links[ix.slot].next = l.next
		l.next.links[ix.slot].prev = l.prev
	} else {
		b := ix.buckets[k]
		if l.prev != nil {
			l.prev.links[ix.slot].next = l.next
		} else {
			b.head = l.next
		}
		if l.next != nil {
			l.next.links[ix.slot].prev = l.prev
		} else {
			b.tail = l.prev
		}
		if b.head == nil {
			delete(ix.buckets, k)
		} else {
			ix.buckets[k] = b
		}
	}
	*l = link{}
}

// New returns a tree with the given number of levels (≥ 1).
func New(depth int) *Tree {
	t := &Tree{levels: make([]level, depth)}
	for i := range t.levels {
		t.levels[i].edgeIdx = newIndex[graph.EdgeID](refLink)
		t.levels[i].depIdx = newIndex[*Node](refLink)
	}
	return t
}

// Depth returns the number of levels.
func (t *Tree) Depth() int { return len(t.levels) }

// SetLevelKey installs the join-key function for level lvl and enables
// its join index. It must be called before any insert reaches the level
// (expansion lists configure their trees at construction). keyOf may
// only read the node's immutable payload (Parent/Edge/Sub/Level chains).
func (t *Tree) SetLevelKey(lvl int, keyOf func(*Node) uint64) {
	lv := &t.levels[lvl-1]
	lv.keyOf = keyOf
	lv.joinIdx = newIndex[uint64](keyLink)
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

// InsertEdge adds a node carrying data edge e at level lvl under parent
// (nil for level 1), which must be live.
func (t *Tree) InsertEdge(lvl int, parent *Node, e graph.Edge) *Node {
	n := &Node{Parent: parent, Edge: e, Level: lvl}
	lv := t.attach(n, parent)
	lv.edgeIdx.add(e.ID, n)
	return n
}

// InsertSub adds a global-tree node at level lvl pointing at submatch
// leaf sub, under parent (which belongs to another tree when lvl == 2,
// because the first global item aliases the first sub-list's last item).
// Both must be live.
func (t *Tree) InsertSub(lvl int, parent, sub *Node) *Node {
	n := &Node{Parent: parent, Sub: sub, Level: lvl}
	lv := t.attach(n, parent)
	lv.depIdx.add(sub, n)
	return n
}

// attach links n at the tail of its level list, at the head of parent's
// child list and into its level's join index, returning the level.
func (t *Tree) attach(n *Node, parent *Node) *level {
	lv := &t.levels[n.Level-1]
	if lv.tail == nil {
		lv.head, lv.tail = n, n
	} else {
		lv.tail.nextLvl = n
		n.prevLvl = lv.tail
		lv.tail = n
	}
	lv.count++
	if lv.keyOf != nil {
		n.joinKey = lv.keyOf(n)
		lv.joinIdx.add(n.joinKey, n)
	}
	if parent != nil {
		n.nextSib = parent.firstChild
		if parent.firstChild != nil {
			parent.firstChild.prevSib = n
		}
		parent.firstChild = n
	}
	return lv
}

// Each calls fn for every live node at level lvl until fn returns false.
func (t *Tree) Each(lvl int, fn func(*Node) bool) {
	for n := t.levels[lvl-1].head; n != nil; n = n.nextLvl {
		if !fn(n) {
			return
		}
	}
}

// EachCandidate calls fn for every live node at level lvl whose join key
// equals key, until fn returns false. On a level without a join index it
// degrades to Each — the caller's filter still sees every node, just
// without the index narrowing.
func (t *Tree) EachCandidate(lvl int, key uint64, fn func(*Node) bool) {
	lv := &t.levels[lvl-1]
	if lv.keyOf == nil {
		t.Each(lvl, fn)
		return
	}
	// Single-bucket fast path: when every live node shares one join key
	// (selectivity ≈ 1, NetworkFlow-shaped bindings) the lone bucket IS
	// the level, and the map probe's hashing is pure overhead — serve
	// the contiguous level list instead. See DESIGN.md §15 for the
	// crossover this pins (BenchmarkInsertIngest had indexed at 0.95×
	// scan on NetworkFlow before this path).
	if len(lv.joinIdx.buckets) == 1 {
		if lv.head != nil && lv.head.joinKey != key {
			return // the one key present is not the probe's key
		}
		t.Each(lvl, fn)
		return
	}
	for n := lv.joinIdx.buckets[key].head; n != nil; n = n.links[keyLink].next {
		if !fn(n) {
			return
		}
	}
}

// nodeOf returns the node a casualty-buffer element holds.
func nodeOf[H any](h H) *Node { return any(h).(*Node) }

// DeleteLevel removes, at level lvl of t, every node that carries data
// edge edgeID (pass a negative ID to skip), every child of the nodes in
// parents, and every node whose Sub is in deadSubs. It appends the
// removed nodes to dst and returns it, so the caller can cascade to the
// next level. This mirrors Algorithm 2's level-by-level scan. parents
// must be the previous level's casualties, each listed once: a removed
// node's child list then holds only live nodes, because every other
// removal path unlinks the node from it.
//
// The casualty buffers hold any element type H that carries a *Node —
// *Node itself, or an interface such as explist's Handle — so callers
// thread their own buffers level to level without converting them.
func DeleteLevel[H any](t *Tree, lvl int, edgeID graph.EdgeID, parents, deadSubs, dst []H) []H {
	lv := &t.levels[lvl-1]
	if edgeID >= 0 {
		dst = killBucket(lv, &lv.edgeIdx, edgeID, dst)
	}
	for _, h := range parents {
		for c := nodeOf(h).firstChild; c != nil; c = c.nextSib {
			lv.kill(c)
			lv.dropRef(c)
			dst = append(dst, any(c).(H))
		}
	}
	for _, h := range deadSubs {
		dst = killBucket(lv, &lv.depIdx, nodeOf(h), dst)
	}
	return dst
}

// killBucket detaches k's whole bucket from ix and removes every node
// on it, appending each to dst.
func killBucket[K comparable, H any](lv *level, ix *index[K], k K, dst []H) []H {
	n := ix.buckets[k].head
	if n == nil {
		return dst
	}
	delete(ix.buckets, k)
	for n != nil {
		next := n.links[refLink].next
		n.links[refLink] = link{}
		unlinkSiblings(n)
		lv.kill(n)
		dst = append(dst, any(n).(H))
		n = next
	}
	return dst
}

// ExpirePrefix removes every level-1 node of t whose edge is older than
// cut, appending them to dst. Level 1 is in arrival order
// (attach appends at the tail, and edges arrive in timestamp order), so
// the expired nodes are a prefix of its list; the caller cascades them
// to the deeper levels with DeleteLevel. Buffers are as in DeleteLevel.
func ExpirePrefix[H any](t *Tree, cut graph.Timestamp, dst []H) []H {
	lv := &t.levels[0]
	for n := lv.head; n != nil && n.Edge.Time < cut; n = lv.head {
		lv.kill(n) // a level-1 node has no parent, hence no siblings
		lv.dropRef(n)
		dst = append(dst, any(n).(H))
	}
	return dst
}

// kill removes n from its level list and join-index bucket, leaving its
// sibling links and its edge/dep bucket to the caller: a removed
// parent's child list must stay traversable while it is being consumed,
// and it is consumed exactly once, so the stale sibling links are never
// observed again.
func (lv *level) kill(n *Node) {
	if n.prevLvl != nil {
		n.prevLvl.nextLvl = n.nextLvl
	} else {
		lv.head = n.nextLvl
	}
	if n.nextLvl != nil {
		n.nextLvl.prevLvl = n.prevLvl
	} else {
		lv.tail = n.prevLvl
	}
	n.nextLvl, n.prevLvl = nil, nil
	if lv.keyOf != nil {
		lv.joinIdx.remove(n.joinKey, n)
	}
	lv.count--
}

// dropRef unlinks n from its edgeIdx or depIdx bucket.
func (lv *level) dropRef(n *Node) {
	if n.Sub != nil {
		lv.depIdx.remove(n.Sub, n)
	} else {
		lv.edgeIdx.remove(n.Edge.ID, n)
	}
}

// unlinkSiblings detaches n from its parent's child list.
func unlinkSiblings(n *Node) {
	if n.prevSib != nil {
		n.prevSib.nextSib = n.nextSib
	} else if n.Parent != nil && n.Parent.firstChild == n {
		n.Parent.firstChild = n.nextSib
	}
	if n.nextSib != nil {
		n.nextSib.prevSib = n.prevSib
	}
}

// nodeBytes and indexEntryBytes are SpaceBytes' per-node and per-key
// costs: a Node, and one index map entry (an 8-byte key — edge ID, join
// key or pointer — plus its bucket).
const (
	nodeBytes       = int64(unsafe.Sizeof(Node{}))
	indexEntryBytes = int64(unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(bucket{}))
)

// SpaceBytes estimates resident size: nodes plus index map entries.
func (t *Tree) SpaceBytes() int64 {
	var b int64
	for i := range t.levels {
		lv := &t.levels[i]
		b += int64(lv.count) * nodeBytes
		keys := len(lv.edgeIdx.buckets) + len(lv.depIdx.buckets) + len(lv.joinIdx.buckets)
		b += int64(keys) * indexEntryBytes
	}
	return b
}

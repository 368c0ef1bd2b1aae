package mstree

import "timingsubg/internal/graph"

// Tree is a match-store tree over a fixed number of levels. A Tree backs
// one expansion list: level j stores the partial matches of the list's
// j-th item. The same structure backs both sub-trees (nodes carry data
// edges) and global L₀ trees (nodes carry Sub pointers into sub-trees).
//
// All per-level state is segregated so that concurrent transactions
// holding different item locks never touch shared memory (see the package
// comment for the full locking discipline).
type Tree struct {
	levels []level
}

type level struct {
	head, tail *Node
	count      int
	// edgeIdx maps a data edge ID to this level's nodes carrying that
	// edge. Dead nodes are skipped and entries dropped when the edge is
	// deleted, so the index is cleaned lazily as the window slides.
	edgeIdx map[graph.EdgeID][]*Node
	// depIdx maps a foreign submatch leaf to this level's nodes whose Sub
	// points at it (global trees only).
	depIdx map[*Node][]*Node
	// joinIdx buckets this level's live nodes by join key — the binding
	// of the level's connecting query vertex (sub-trees) or the
	// shared-binding fingerprint of the level's join (last items and
	// global levels). It makes the INSERT probe O(candidates) instead of
	// O(level). nil until SetLevelKey installs keyOf; owned by this
	// level's item lock like every other level structure, and cleaned as
	// nodes die (each casualty is swap-deleted from its bucket while the
	// deleter holds the level's exclusive lock).
	joinIdx map[uint64][]*Node
	// keyOf computes a node's join key from its immutable payload
	// (parent/sub chains); set once before any insert.
	keyOf func(*Node) uint64
	// expiry is a binary min-heap over the level's nodes ordered by
	// minTime (death-time key), pushed at attach. A window slide pops
	// everything below the watermark in one pass (DeleteExpiredBefore)
	// instead of walking the level once per expired edge. Nodes killed
	// by other paths stay in the heap and are skipped lazily on pop —
	// their minTime is below the very watermark that killed them, so
	// they surface (and are dropped) on the next sweep.
	expiry []*Node
	// heapDead counts dead nodes still resident in expiry. When they
	// outnumber the live ones the heap is compacted (heapCompact), so
	// per-edge deletion — which never pops — cannot pin dead nodes
	// indefinitely, and space drains fully once the window empties.
	heapDead int
}

// New returns a tree with the given number of levels (≥ 1).
func New(depth int) *Tree {
	t := &Tree{levels: make([]level, depth)}
	for i := range t.levels {
		t.levels[i].edgeIdx = make(map[graph.EdgeID][]*Node)
		t.levels[i].depIdx = make(map[*Node][]*Node)
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
	lv.joinIdx = make(map[uint64][]*Node)
}

// indexJoinKey computes and records n's join key. Caller holds the
// level's item lock (inserts always do).
func (lv *level) indexJoinKey(n *Node) {
	if lv.keyOf == nil {
		return
	}
	k := lv.keyOf(n)
	n.joinKey = k
	n.keySlot = len(lv.joinIdx[k])
	lv.joinIdx[k] = append(lv.joinIdx[k], n)
}

// dropJoinKey swap-deletes n from its join-index bucket. Caller holds
// the level's exclusive item lock (all death paths run in DeleteLevel).
func (lv *level) dropJoinKey(n *Node) {
	if lv.keyOf == nil {
		return
	}
	b := lv.joinIdx[n.joinKey]
	last := len(b) - 1
	if n.keySlot > last || b[n.keySlot] != n {
		return // already dropped
	}
	b[n.keySlot] = b[last]
	b[n.keySlot].keySlot = n.keySlot
	b[last] = nil
	if last == 0 {
		delete(lv.joinIdx, n.joinKey)
	} else {
		lv.joinIdx[n.joinKey] = b[:last]
	}
}

// indexEdgeRef records n in its level's edge index, remembering the
// bucket slot so death paths can swap-delete the reference.
func (lv *level) indexEdgeRef(n *Node) {
	n.edgeSlot = len(lv.edgeIdx[n.Edge.ID])
	lv.edgeIdx[n.Edge.ID] = append(lv.edgeIdx[n.Edge.ID], n)
}

// dropEdgeRef swap-deletes n from its edge-index bucket, deleting the
// key when the bucket empties. Together with dropDepRef it keeps the
// per-level indexes live-only: every death path cleans its references
// eagerly, so a batch expiry sweep cannot strand dead entries behind a
// key that no later per-edge delete would ever visit.
func (lv *level) dropEdgeRef(n *Node) {
	b := lv.edgeIdx[n.Edge.ID]
	last := len(b) - 1
	if last < 0 || n.edgeSlot > last || b[n.edgeSlot] != n {
		return // already dropped
	}
	b[n.edgeSlot] = b[last]
	b[n.edgeSlot].edgeSlot = n.edgeSlot
	b[last] = nil
	if last == 0 {
		delete(lv.edgeIdx, n.Edge.ID)
	} else {
		lv.edgeIdx[n.Edge.ID] = b[:last]
	}
}

// indexDepRef records a global node in its level's dependency index
// (keyed by the foreign submatch leaf), remembering the bucket slot.
func (lv *level) indexDepRef(n *Node) {
	n.depSlot = len(lv.depIdx[n.Sub])
	lv.depIdx[n.Sub] = append(lv.depIdx[n.Sub], n)
}

// dropDepRef swap-deletes n from its dependency-index bucket; see
// dropEdgeRef for why death paths clean eagerly.
func (lv *level) dropDepRef(n *Node) {
	b := lv.depIdx[n.Sub]
	last := len(b) - 1
	if last < 0 || n.depSlot > last || b[n.depSlot] != n {
		return // already dropped
	}
	b[n.depSlot] = b[last]
	b[n.depSlot].depSlot = n.depSlot
	b[last] = nil
	if last == 0 {
		delete(lv.depIdx, n.Sub)
	} else {
		lv.depIdx[n.Sub] = b[:last]
	}
}

// Count returns the number of live nodes (= partial matches) at level
// lvl (1-based).
func (t *Tree) Count(lvl int) int { return t.levels[lvl-1].count }

// Nodes returns the total number of live nodes. It must only be called
// while the tree is quiescent (no in-flight transactions).
func (t *Tree) Nodes() int64 {
	var n int64
	for i := range t.levels {
		n += int64(t.levels[i].count)
	}
	return n
}

// InsertEdge adds a node carrying data edge e at level lvl under parent
// (nil for level 1).
//
// The parent may already be partially removed: that only happens when a
// LATER-timestamped deletion overtook this transaction between its read
// of level lvl−1 and this insert (wait-list ordering makes an earlier
// deletion impossible — it would have unlinked the parent before the
// read). In serial order the insert precedes that deletion, so the child
// must be created (and reported if it completes a match); the deleter's
// pending cascade at this level will then remove it via the parent's
// child list. This is exactly why partial removal (Fig. 14) keeps dead
// nodes intact.
func (t *Tree) InsertEdge(lvl int, parent *Node, e graph.Edge) *Node {
	n := &Node{Parent: parent, Edge: e, Level: lvl, minTime: e.Time}
	if parent != nil && parent.minTime < n.minTime {
		n.minTime = parent.minTime
	}
	t.attach(n, parent)
	lv := &t.levels[lvl-1]
	lv.indexEdgeRef(n)
	lv.indexJoinKey(n)
	return n
}

// InsertSub adds a global-tree node at level lvl pointing at submatch
// leaf sub, under parent (which belongs to another tree when lvl == 2,
// because the first global item aliases the first sub-list's last item).
// As with InsertEdge, a dead parent or sub means a later-timestamped
// deleter overtook this transaction; the insert proceeds and that
// deleter's pending cascade removes the node.
func (t *Tree) InsertSub(lvl int, parent, sub *Node) *Node {
	n := &Node{Parent: parent, Sub: sub, Level: lvl, minTime: sub.minTime}
	if parent != nil && parent.minTime < n.minTime {
		n.minTime = parent.minTime
	}
	t.attach(n, parent)
	lv := &t.levels[lvl-1]
	lv.indexDepRef(n)
	lv.indexJoinKey(n)
	return n
}

func (t *Tree) attach(n *Node, parent *Node) {
	lv := &t.levels[n.Level-1]
	if lv.tail == nil {
		lv.head, lv.tail = n, n
	} else {
		lv.tail.nextLvl = n
		n.prevLvl = lv.tail
		lv.tail = n
	}
	lv.count++
	lv.heapPush(n)
	if parent != nil {
		n.nextSib = parent.firstChild
		if parent.firstChild != nil {
			parent.firstChild.prevSib = n
		}
		parent.firstChild = n
	}
}

// heapPush sifts n up the level's expiry min-heap. Inserts arrive in
// stream order but a node under an old parent inherits the parent's
// minTime, so push order is not sorted and a real heap is needed.
func (lv *level) heapPush(n *Node) {
	lv.expiry = append(lv.expiry, n)
	i := len(lv.expiry) - 1
	for i > 0 {
		p := (i - 1) / 2
		if lv.expiry[p].minTime <= lv.expiry[i].minTime {
			break
		}
		lv.expiry[p], lv.expiry[i] = lv.expiry[i], lv.expiry[p]
		i = p
	}
}

// heapPop removes the heap minimum and sifts the replacement down.
func (lv *level) heapPop() {
	h := lv.expiry
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	lv.expiry = h[:last]
	siftDown(lv.expiry, 0)
}

// siftDown restores the heap property below index i.
func siftDown(h []*Node, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && h[l].minTime < h[s].minTime {
			s = l
		}
		if r < len(h) && h[r].minTime < h[s].minTime {
			s = r
		}
		if s == i {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// heapCompact drops every dead resident from the expiry heap and
// re-heapifies in place. Called when dead residents outnumber live
// ones, so its O(n) cost amortizes to O(1) per death.
func (lv *level) heapCompact() {
	h := lv.expiry
	w := 0
	for _, n := range h {
		if !n.Dead() {
			h[w] = n
			w++
		}
	}
	for i := w; i < len(h); i++ {
		h[i] = nil
	}
	h = h[:w]
	for i := w/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	lv.expiry = h
	lv.heapDead = 0
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
// without the index narrowing. Dead nodes are skipped: a later-
// timestamped deleter may have overtaken the read under Fig. 14's
// partial-removal protocol.
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
	if len(lv.joinIdx) == 1 {
		if lv.head != nil && lv.head.joinKey != key {
			return // the one key present is not the probe's key
		}
		t.Each(lvl, fn)
		return
	}
	for _, n := range lv.joinIdx[key] {
		if n.Dead() {
			continue
		}
		if !fn(n) {
			return
		}
	}
}

// DeleteLevel partially removes, at level lvl, every node that carries
// data edge edgeID (pass a negative ID to skip), every child of the nodes
// in parentCasualties, and every node whose Sub is in deadSubs. It
// returns the nodes removed at this level so the caller can cascade to
// the next level. This mirrors Algorithm 2's level-by-level scan with
// the Fig. 14 partial-removal protocol.
func (t *Tree) DeleteLevel(lvl int, edgeID graph.EdgeID, parentCasualties, deadSubs []*Node) []*Node {
	lv := &t.levels[lvl-1]
	var dead []*Node
	// The indexes are live-only (every death path drops its references),
	// so draining a bucket is: kill its last element until the key is
	// gone. partialRemove's swap-delete removes exactly that element, so
	// the loop makes progress without copying the bucket.
	if edgeID >= 0 {
		for {
			b := lv.edgeIdx[edgeID]
			if len(b) == 0 {
				break
			}
			n := b[len(b)-1]
			t.partialRemove(n)
			dead = append(dead, n)
		}
	}
	for _, p := range parentCasualties {
		for c := p.firstChild; c != nil; c = c.nextSib {
			if !c.Dead() {
				t.partialRemoveKeepSib(c)
				dead = append(dead, c)
			}
		}
	}
	for _, s := range deadSubs {
		for {
			b := lv.depIdx[s]
			if len(b) == 0 {
				break
			}
			n := b[len(b)-1]
			t.partialRemove(n)
			dead = append(dead, n)
		}
	}
	// Per-edge deletion never pops the expiry heap, so its dead
	// residents are pruned here once they outnumber the live ones.
	if lv.heapDead*2 > len(lv.expiry) {
		lv.heapCompact()
	}
	return dead
}

// DeleteExpiredBefore partially removes, at level lvl, every live node
// whose death-time key (minTime) is below cut, in one pass over the
// level's expiry heap, and returns the number removed. Because a
// child's minTime never exceeds its parent's and a global node's never
// exceeds its submatch leaf's, a watermark that kills a node kills its
// whole downstream cone — so each level can be swept independently
// with the same cut and no casualty propagation, which is what lets a
// window slide take each item lock once instead of once per expired
// edge. Nothing is allocated: casualties are counted, not collected.
func (t *Tree) DeleteExpiredBefore(lvl int, cut graph.Timestamp) int {
	lv := &t.levels[lvl-1]
	removed := 0
	for len(lv.expiry) > 0 {
		n := lv.expiry[0]
		if n.Dead() {
			lv.heapPop() // lazily discard nodes killed by other paths
			lv.heapDead--
			continue
		}
		if n.minTime >= cut {
			break
		}
		lv.heapPop()
		t.partialRemove(n)
		lv.heapDead-- // partialRemove counted n, but it just left the heap
		removed++
	}
	return removed
}

// partialRemove unlinks n from its level list and its parent's child
// list, and marks it dead. Parent pointer and payload stay intact
// (Fig. 14).
func (t *Tree) partialRemove(n *Node) {
	t.unlinkSiblings(n)
	t.partialRemoveKeepSib(n)
}

// partialRemoveKeepSib removes n from the level list and marks it dead,
// but leaves the sibling chain intact — used while iterating a dead
// parent's child list, which must stay traversable mid-iteration. The
// dead parent's child list is consumed exactly once, so the stale links
// are never observed again.
func (t *Tree) partialRemoveKeepSib(n *Node) {
	lv := &t.levels[n.Level-1]
	if n.prevLvl != nil {
		n.prevLvl.nextLvl = n.nextLvl
	} else if lv.head == n {
		lv.head = n.nextLvl
	}
	if n.nextLvl != nil {
		n.nextLvl.prevLvl = n.prevLvl
	} else if lv.tail == n {
		lv.tail = n.prevLvl
	}
	n.nextLvl, n.prevLvl = nil, nil
	lv.dropJoinKey(n)
	if n.Sub != nil {
		lv.dropDepRef(n)
	} else {
		lv.dropEdgeRef(n)
	}
	n.dead.Store(true)
	lv.count--
	lv.heapDead++
}

func (t *Tree) unlinkSiblings(n *Node) {
	if n.prevSib != nil {
		n.prevSib.nextSib = n.nextSib
	} else if n.Parent != nil && n.Parent.firstChild == n {
		n.Parent.firstChild = n.nextSib
	}
	if n.nextSib != nil {
		n.nextSib.prevSib = n.prevSib
	}
}

// SpaceBytes estimates resident size: nodes plus index overhead. Like
// Nodes, it must be called while quiescent.
func (t *Tree) SpaceBytes() int64 {
	const nodeSz = 168 // Node struct incl. embedded Edge, slots, minTime
	var b int64
	for i := range t.levels {
		b += int64(t.levels[i].count) * nodeSz
		b += int64(len(t.levels[i].edgeIdx)) * 48
		b += int64(len(t.levels[i].depIdx)) * 48
		b += int64(len(t.levels[i].joinIdx)) * 48
		b += int64(len(t.levels[i].expiry)) * 8
	}
	return b
}

package mstree

import (
	"math/rand"
	"slices"
	"testing"

	"timingsubg/internal/graph"
)

// The mirror harness drives three sub-trees and a global tree over them
// the way an engine does, and checks every step against a naive model.
// Sub-tree a (depth 3) is sub-list 1, b (depth 1) sub-list 2 and c
// (depth 2) sub-list 3; g (depth 3) is their global tree: its level-2
// nodes join a leaf of a with a leaf of b, its level-3 nodes a level-2
// node with a leaf of c. Edge IDs double as timestamps and grow with
// every insert, so a match dies when its oldest edge leaves the window.
const (
	treeA = iota
	treeB
	treeC
	treeG
	nTrees
)

var mirrorDepth = [nTrees]int{3, 1, 2, 3}

// mnode is the model of one stored match.
type mnode struct {
	slot   Slot
	ids    []int64 // sub-tree path edge IDs, level 1 first
	parent *mnode
	sub    *mnode // global nodes: the referenced sub-tree leaf
	minID  int64  // the match's oldest edge
}

type mirror struct {
	tb     testing.TB
	trees  [nTrees]*Tree
	live   [nTrees][]map[Slot]*mnode // per tree, per level (index lvl-1)
	nextID int64
	cut    int64 // every edge below cut has expired
	op     int
}

// joinKeys is the number of join keys of each keyed level, so a probe
// over every key must reach every live node of the level.
const joinKeys = 4

func newMirror(tb testing.TB) *mirror {
	m := &mirror{tb: tb, nextID: 1, cut: 1}
	m.trees[treeA], m.trees[treeB], m.trees[treeC] = New(3), New(1), New(2)
	m.trees[treeG] = NewGlobal(3, m.trees[treeA])
	for lvl := 1; lvl <= 3; lvl++ {
		m.trees[treeA].SetLevelKey(lvl, func(s Slot) uint64 { return uint64(m.trees[treeA].Edge(lvl, s).ID) % joinKeys })
	}
	m.trees[treeC].SetLevelKey(2, func(s Slot) uint64 { return uint64(m.trees[treeC].Edge(2, s).ID) % joinKeys })
	m.trees[treeG].SetLevelKey(2, func(s Slot) uint64 {
		return uint64(m.trees[treeB].Edge(1, m.trees[treeG].Sub(2, s)).ID) % joinKeys
	})
	for x := range m.live {
		m.live[x] = make([]map[Slot]*mnode, mirrorDepth[x])
		for i := range m.live[x] {
			m.live[x][i] = map[Slot]*mnode{}
		}
	}
	return m
}

// run decodes ops from data until it runs out, checking the tree
// against the model after each.
func (m *mirror) run(data []byte) {
	next := func() (int, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return int(b), true
	}
	for {
		op, ok := next()
		if !ok {
			return
		}
		arg1, ok1 := next()
		arg2, ok2 := next()
		if !ok1 || !ok2 {
			return
		}
		m.op++
		switch op % 8 {
		case 0, 1, 2:
			m.insertEdge(treeA, 1+arg1%3, arg2)
		case 3:
			m.insertEdge(treeB, 1, arg2)
		case 4:
			m.insertEdge(treeC, 1+arg1%2, arg2)
		case 5:
			m.insertSub(2+arg1%2, arg1/2, arg2)
		case 6:
			m.sweep(m.cut+1+int64(arg1%8), false)
		case 7:
			m.sweep(m.cut+1, true)
		}
		m.verify()
	}
}

// pick returns the i-th (mod size) live node of a level in slot order,
// or nil if the level is empty.
func (m *mirror) pick(x, lvl, i int) *mnode {
	lv := m.live[x][lvl-1]
	if len(lv) == 0 {
		return nil
	}
	slots := make([]Slot, 0, len(lv))
	for s := range lv {
		slots = append(slots, s)
	}
	slices.Sort(slots)
	return lv[slots[i%len(slots)]]
}

// record enters a freshly inserted node into the model.
func (m *mirror) record(x, lvl int, n *mnode) {
	if old, ok := m.live[x][lvl-1][n.slot]; ok {
		m.tb.Fatalf("op %d: tree %d level %d: insert reused slot %d of live match %v", m.op, x, lvl, n.slot, old.ids)
	}
	m.live[x][lvl-1][n.slot] = n
}

func (m *mirror) insertEdge(x, lvl, parentPick int) {
	var parent *mnode
	if lvl > 1 {
		if parent = m.pick(x, lvl-1, parentPick); parent == nil {
			return
		}
	}
	id := m.nextID
	m.nextID++
	n := &mnode{parent: parent, minID: id, ids: []int64{id}}
	ps := NoSlot
	if parent != nil {
		ps, n.minID = parent.slot, parent.minID
		n.ids = append(slices.Clone(parent.ids), id)
	}
	n.slot = m.trees[x].InsertEdge(lvl, ps, graph.Edge{ID: graph.EdgeID(id), From: graph.VertexID(id), To: graph.VertexID(-id), Time: graph.Timestamp(id), EdgeLabel: graph.Label(id % 5)})
	m.record(x, lvl, n)
}

func (m *mirror) insertSub(lvl, parentPick, subPick int) {
	var parent, sub *mnode
	if lvl == 2 {
		parent, sub = m.pick(treeA, 3, parentPick), m.pick(treeB, 1, subPick)
	} else {
		parent, sub = m.pick(treeG, 2, parentPick), m.pick(treeC, 2, subPick)
	}
	if parent == nil || sub == nil {
		return
	}
	n := &mnode{parent: parent, sub: sub, minID: min(parent.minID, sub.minID)}
	n.slot = m.trees[treeG].InsertSub(lvl, parent.slot, sub.slot)
	m.record(treeG, lvl, n)
}

// sweep expires every edge below cut, as one window slide (prefix) or
// as per-edge expiry of the oldest edge (perEdge, cut = m.cut+1), and
// checks each level's casualties against the model's.
func (m *mirror) sweep(cut int64, perEdge bool) {
	cut = min(cut, m.nextID)
	if cut <= m.cut {
		return
	}
	var leaves [nTrees][]Slot
	for x := treeA; x <= treeC; x++ {
		var cas []Slot
		if perEdge {
			cas = m.trees[x].ExpireEdge(graph.EdgeID(m.cut), nil)
		} else {
			cas = m.trees[x].ExpirePrefix(graph.Timestamp(cut), nil)
		}
		m.checkCasualties(x, 1, cut, cas)
		for lvl := 2; lvl <= mirrorDepth[x]; lvl++ {
			cas = m.trees[x].DeleteLevel(lvl, cas, nil, nil)
			m.checkCasualties(x, lvl, cut, cas)
		}
		leaves[x] = cas
	}
	g2 := m.trees[treeG].DeleteLevel(2, leaves[treeA], leaves[treeB], nil)
	m.checkCasualties(treeG, 2, cut, g2)
	g3 := m.trees[treeG].DeleteLevel(3, g2, leaves[treeC], nil)
	m.checkCasualties(treeG, 3, cut, g3)
	// The sweep is over: only now may the model forget the dead.
	for x := range m.live {
		for _, lv := range m.live[x] {
			for s, n := range lv {
				if n.minID < cut {
					delete(lv, s)
				}
			}
		}
	}
	m.cut = cut
}

// checkCasualties compares a level's casualties with the model's: the
// live matches whose oldest edge is below cut, each exactly once.
func (m *mirror) checkCasualties(x, lvl int, cut int64, cas []Slot) {
	want := 0
	for _, n := range m.live[x][lvl-1] {
		if n.minID < cut {
			want++
		}
	}
	seen := map[Slot]bool{}
	for _, s := range cas {
		n, ok := m.live[x][lvl-1][s]
		if !ok || n.minID >= cut || seen[s] {
			m.tb.Fatalf("op %d: tree %d level %d: casualty slot %d is not one dying match (live %v)", m.op, x, lvl, s, ok)
		}
		seen[s] = true
	}
	if len(cas) != want {
		m.tb.Fatalf("op %d: tree %d level %d: %d casualties, want %d", m.op, x, lvl, len(cas), want)
	}
}

// verify checks every level of every tree against the model: counts,
// the level list (Each), the join index (EachCandidate over every key),
// each live node's payload and parent, and each live node's child list.
func (m *mirror) verify() {
	for x, tr := range m.trees {
		for lvl := 1; lvl <= mirrorDepth[x]; lvl++ {
			if x == treeG && lvl == 1 {
				continue // L₀¹ is a's last level
			}
			lv := m.live[x][lvl-1]
			if got := tr.Count(lvl); got != len(lv) {
				m.tb.Fatalf("op %d: tree %d level %d: Count %d, model %d", m.op, x, lvl, got, len(lv))
			}
			m.checkVisits(x, lvl, "Each", func(fn func(Slot) bool) { tr.Each(lvl, fn) })
			if tr.levels[lvl-1].keyOf != nil {
				m.checkVisits(x, lvl, "EachCandidate", func(fn func(Slot) bool) {
					for key := uint64(0); key < joinKeys; key++ {
						tr.EachCandidate(lvl, key, fn)
					}
				})
			}
			for s, n := range lv {
				m.checkNode(x, lvl, s, n)
				m.checkChildren(x, lvl, s, n)
			}
		}
	}
}

// checkVisits checks that walk visits each live slot of the level once
// and nothing else.
func (m *mirror) checkVisits(x, lvl int, name string, walk func(func(Slot) bool)) {
	lv := m.live[x][lvl-1]
	seen := map[Slot]bool{}
	walk(func(s Slot) bool {
		if _, ok := lv[s]; !ok || seen[s] {
			m.tb.Fatalf("op %d: tree %d level %d: %s reached slot %d, which holds no live match or was seen", m.op, x, lvl, name, s)
		}
		seen[s] = true
		return true
	})
	if len(seen) != len(lv) {
		m.tb.Fatalf("op %d: tree %d level %d: %s saw %d nodes, model holds %d", m.op, x, lvl, name, len(seen), len(lv))
	}
}

func (m *mirror) checkNode(x, lvl int, s Slot, n *mnode) {
	tr := m.trees[x]
	if x != treeG {
		var ids []int64
		for _, e := range tr.PathEdges(lvl, s, nil) {
			ids = append(ids, int64(e.ID))
		}
		if !slices.Equal(ids, n.ids) {
			m.tb.Fatalf("op %d: tree %d level %d slot %d: path %v, model %v", m.op, x, lvl, s, ids, n.ids)
		}
		if e := tr.Edge(lvl, s); int64(e.To) != -int64(e.ID) || e.EdgeLabel != graph.Label(e.ID%5) {
			m.tb.Fatalf("op %d: tree %d level %d slot %d: payload %+v", m.op, x, lvl, s, e)
		}
		return
	}
	if p, sub := tr.Parent(lvl, s), tr.Sub(lvl, s); p != n.parent.slot || sub != n.sub.slot {
		m.tb.Fatalf("op %d: global level %d slot %d: parent/sub %d/%d, model %d/%d", m.op, lvl, s, p, sub, n.parent.slot, n.sub.slot)
	}
}

// checkChildren walks the child list of the live node at slot s: the
// next level of its tree, or global level 2 for a leaf of a.
func (m *mirror) checkChildren(x, lvl int, s Slot, n *mnode) {
	cx, clvl := x, lvl+1
	if x == treeA && lvl == mirrorDepth[treeA] {
		cx, clvl = treeG, 2
	}
	if clvl > mirrorDepth[cx] {
		return
	}
	want := 0
	for _, c := range m.live[cx][clvl-1] {
		if c.parent == n {
			want++
		}
	}
	got := 0
	nodes := m.trees[cx].levels[clvl-1].nodes
	for c := m.trees[x].levels[lvl-1].nodes[s].firstChild; c != NoSlot; c = nodes[c].nextSib {
		if cn, ok := m.live[cx][clvl-1][c]; !ok || cn.parent != n {
			m.tb.Fatalf("op %d: tree %d level %d slot %d: child list holds slot %d, not a live child", m.op, x, lvl, s, c)
		}
		if got++; got > want {
			m.tb.Fatalf("op %d: tree %d level %d slot %d: child list longer than the model's %d", m.op, x, lvl, s, want)
		}
	}
	if got != want {
		m.tb.Fatalf("op %d: tree %d level %d slot %d: %d children listed, model %d", m.op, x, lvl, s, got, want)
	}
}

// TestRandomizedIntegrity cross-checks three sub-trees and their global
// tree against the model over thousands of random operations: inserts,
// window slides (ExpirePrefix and the cascade) and per-edge expiry of
// the oldest edge (ExpireEdge and the cascade), with slots reused
// throughout. It also checks the invariants that let removed nodes go
// unmarked: no probe, level walk or child list ever reaches a slot that
// holds no live match.
func TestRandomizedIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	data := make([]byte, 3*4000)
	rng.Read(data)
	m := newMirror(t)
	m.run(data)
	if m.cut < 100 || m.nextID < 1000 {
		t.Fatalf("the run expired %d and stored %d edges: too few to exercise reuse", m.cut, m.nextID)
	}
}

// FuzzTreeVsMirror runs the same model check on fuzzed operation
// sequences.
func FuzzTreeVsMirror(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 2, 2, 0, 3, 0, 0, 5, 0, 0, 6, 7, 0, 0, 0, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		newMirror(t).run(data)
	})
}

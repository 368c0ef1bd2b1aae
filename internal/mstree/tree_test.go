package mstree

import (
	"math/rand"
	"testing"
	"unsafe"

	"timingsubg/internal/graph"
)

func edge(id int64) graph.Edge {
	return graph.Edge{ID: graph.EdgeID(id), Time: graph.Timestamp(id)}
}

// deleteLevel runs DeleteLevel on *Node buffers, appending to a fresh
// casualty slice.
func deleteLevel(t *Tree, lvl int, edgeID graph.EdgeID, parents, deadSubs []*Node) []*Node {
	return DeleteLevel(t, lvl, edgeID, parents, deadSubs, nil)
}

// collect returns the edge IDs of live nodes at a level.
func collect(t *Tree, lvl int) []int64 {
	var out []int64
	t.Each(lvl, func(n *Node) bool {
		out = append(out, int64(n.Edge.ID))
		return true
	})
	return out
}

// TestFig10 rebuilds the paper's Fig. 10 MS-tree: matches {σ1}, {σ1,σ3},
// {σ1,σ3,σ4}, {σ1,σ3,σ9} share prefixes, and expiring σ1 removes the
// whole tree.
func TestFig10(t *testing.T) {
	tr := New(3)
	n1 := tr.InsertEdge(1, nil, edge(1)) // σ1
	n3 := tr.InsertEdge(2, n1, edge(3))  // σ1→σ3
	n4 := tr.InsertEdge(3, n3, edge(4))  // σ1→σ3→σ4
	n9 := tr.InsertEdge(3, n3, edge(9))  // σ1→σ3→σ9 shares the prefix
	if tr.Count(1) != 1 || tr.Count(2) != 1 || tr.Count(3) != 2 {
		t.Fatalf("level counts: want 1/1/2, got %d/%d/%d", tr.Count(1), tr.Count(2), tr.Count(3))
	}
	if tr.Nodes() != 4 {
		t.Errorf("4 nodes store 4 partial matches with shared prefixes, got %d", tr.Nodes())
	}
	// Path reconstruction.
	p := n4.PathEdges(nil)
	if len(p) != 3 || p[0].ID != 1 || p[1].ID != 3 || p[2].ID != 4 {
		t.Errorf("path of σ4 node: got %v", p)
	}
	p = n9.PathEdges(p)
	if p[2].ID != 9 || p[0].ID != 1 {
		t.Errorf("path of σ9 node: got %v", p)
	}

	// Expire σ1: the paper's cascade deletes σ3, then σ4 and σ9.
	dead1 := deleteLevel(tr, 1, 1, nil, nil)
	if len(dead1) != 1 || dead1[0] != n1 {
		t.Fatalf("level 1 casualties: %v", dead1)
	}
	dead2 := deleteLevel(tr, 2, 1, dead1, nil)
	if len(dead2) != 1 || dead2[0] != n3 {
		t.Fatalf("level 2 casualties: %v", dead2)
	}
	dead3 := deleteLevel(tr, 3, 1, dead2, nil)
	if len(dead3) != 2 {
		t.Fatalf("level 3 casualties: want σ4 and σ9, got %v", dead3)
	}
	if tr.Nodes() != 0 {
		t.Errorf("tree must be empty, %d nodes remain", tr.Nodes())
	}
}

func TestDeleteMidLevel(t *testing.T) {
	tr := New(2)
	a := tr.InsertEdge(1, nil, edge(1))
	b := tr.InsertEdge(1, nil, edge(2))
	c := tr.InsertEdge(1, nil, edge(3))
	tr.InsertEdge(2, a, edge(10))
	tr.InsertEdge(2, b, edge(11))
	tr.InsertEdge(2, c, edge(12))

	// Delete the middle level-1 node.
	dead := deleteLevel(tr, 1, 2, nil, nil)
	if len(dead) != 1 || dead[0] != b {
		t.Fatalf("want σ2's node, got %v", dead)
	}
	if got := collect(tr, 1); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("level list after mid delete: %v", got)
	}
	dead2 := deleteLevel(tr, 2, 2, dead, nil)
	if len(dead2) != 1 || dead2[0].Edge.ID != 11 {
		t.Fatalf("cascade: want σ11 child, got %v", dead2)
	}
	if got := collect(tr, 2); len(got) != 2 {
		t.Errorf("level 2 after cascade: %v", got)
	}
}

func TestGlobalTreeSubIndex(t *testing.T) {
	// Sub-tree with two complete matches (leaves), global tree referencing
	// them.
	sub := New(1)
	leafA := sub.InsertEdge(1, nil, edge(1))
	leafB := sub.InsertEdge(1, nil, edge(2))

	g := New(2)
	gA := g.InsertSub(2, leafA, leafB) // parent from "first sub list", sub = leafB
	if gA == nil {
		t.Fatal("InsertSub failed")
	}
	if g.Count(2) != 1 {
		t.Fatal("global node must be live")
	}
	// Killing leafB (the Sub reference) removes the global node via the
	// dependency index.
	deadSubs := deleteLevel(sub, 1, 2, nil, nil)
	if len(deadSubs) != 1 || deadSubs[0] != leafB {
		t.Fatalf("want leafB dead, got %v", deadSubs)
	}
	gDead := deleteLevel(g, 2, -1, nil, deadSubs)
	if len(gDead) != 1 || gDead[0] != gA {
		t.Fatalf("global node must die with its submatch, got %v", gDead)
	}

	// Killing leafA (the parent) removes global children via the child
	// list.
	gB := g.InsertSub(2, leafA, leafA)
	if gB == nil {
		t.Fatal("InsertSub failed")
	}
	deadA := deleteLevel(sub, 1, 1, nil, nil)
	gDead2 := deleteLevel(g, 2, -1, deadA, nil)
	if len(gDead2) != 1 || gDead2[0] != gB {
		t.Fatalf("global node must die with its parent, got %v", gDead2)
	}
}

// TestRandomizedIntegrity cross-checks the tree against a naive mirror
// over thousands of random operations: inserts, per-edge deletes of a
// random edge, and watermark expiry (ExpirePrefix plus the cascade).
// Edge IDs double as timestamps and grow along every path, so a
// watermark kills exactly the matches whose first edge is below it.
// It also checks the invariant that lets removed nodes go unmarked: no
// join-index probe and no cascade's child-list walk ever reaches a node
// the mirror has seen removed.
func TestRandomizedIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const depth = 3
	const keys = 4 // join keys per level: several buckets, so probes use the index
	tr := New(depth)
	for lvl := 1; lvl <= depth; lvl++ {
		tr.SetLevelKey(lvl, func(n *Node) uint64 { return uint64(n.Edge.ID) % keys })
	}
	removed := map[*Node]bool{}
	// cascade runs DeleteLevel after checking that the child lists it
	// is about to walk hold no removed node.
	cascade := func(op, lvl int, edgeID graph.EdgeID, parents []*Node) []*Node {
		for _, p := range parents {
			for c := p.firstChild; c != nil; c = c.nextSib {
				if removed[c] {
					t.Fatalf("op %d: level %d: child list of a casualty holds removed node %d", op, lvl, c.Edge.ID)
				}
			}
		}
		return deleteLevel(tr, lvl, edgeID, parents, nil)
	}

	type mirrorMatch struct {
		ids  [depth]int64
		node *Node
	}
	var mirror [depth][]mirrorMatch
	// prune drops every mirror match that dies reports dead.
	prune := func(dies func(mirrorMatch, int) bool) {
		for lvl := 1; lvl <= depth; lvl++ {
			keep := mirror[lvl-1][:0]
			for _, mm := range mirror[lvl-1] {
				if dies(mm, lvl) {
					removed[mm.node] = true
				} else {
					keep = append(keep, mm)
				}
			}
			mirror[lvl-1] = keep
		}
	}
	nextID := int64(1)
	watermark := int64(1)

	for op := 0; op < 4000; op++ {
		if rng.Intn(4) != 0 { // insert
			id := nextID
			nextID++
			lvl := 1 + rng.Intn(depth)
			if lvl == 1 {
				n := tr.InsertEdge(1, nil, edge(id))
				mirror[0] = append(mirror[0], mirrorMatch{ids: [depth]int64{id}, node: n})
			} else if len(mirror[lvl-2]) > 0 {
				parent := mirror[lvl-2][rng.Intn(len(mirror[lvl-2]))]
				n := tr.InsertEdge(lvl, parent.node, edge(id))
				mm := mirrorMatch{ids: parent.ids, node: n}
				mm.ids[lvl-1] = id
				mirror[lvl-1] = append(mirror[lvl-1], mm)
			}
		} else if rng.Intn(3) == 0 { // slide the watermark
			watermark = min(watermark+1+rng.Int63n(8), nextID)
			casualties := ExpirePrefix(tr, graph.Timestamp(watermark), []*Node(nil))
			for lvl := 2; lvl <= depth; lvl++ {
				casualties = cascade(op, lvl, -1, casualties)
			}
			prune(func(mm mirrorMatch, _ int) bool { return mm.ids[0] < watermark })
		} else if nextID > 1 { // expire a random id
			victim := 1 + rng.Int63n(nextID-1)
			var casualties []*Node
			for lvl := 1; lvl <= depth; lvl++ {
				casualties = cascade(op, lvl, graph.EdgeID(victim), casualties)
			}
			prune(func(mm mirrorMatch, lvl int) bool {
				for l := 0; l < lvl; l++ {
					if mm.ids[l] == victim {
						return true
					}
				}
				return false
			})
		}
		for lvl := 1; lvl <= depth; lvl++ {
			if tr.Count(lvl) != len(mirror[lvl-1]) {
				t.Fatalf("op %d: level %d count drifted: tree %d, mirror %d",
					op, lvl, tr.Count(lvl), len(mirror[lvl-1]))
			}
			seen := 0
			for key := uint64(0); key < keys; key++ {
				tr.EachCandidate(lvl, key, func(n *Node) bool {
					if removed[n] {
						t.Fatalf("op %d: level %d: probe of key %d reached removed node %d", op, lvl, key, n.Edge.ID)
					}
					seen++
					return true
				})
			}
			if seen != tr.Count(lvl) {
				t.Fatalf("op %d: level %d: probes over every key saw %d nodes, level holds %d", op, lvl, seen, tr.Count(lvl))
			}
		}
	}
	// Every surviving path must match the mirror.
	for lvl := 1; lvl <= depth; lvl++ {
		want := map[[depth]int64]bool{}
		for _, mm := range mirror[lvl-1] {
			want[mm.ids] = true
		}
		tr.Each(lvl, func(n *Node) bool {
			var ids [depth]int64
			for i, e := range n.PathEdges(nil) {
				ids[i] = int64(e.ID)
			}
			if !want[ids] {
				t.Errorf("level %d: unexpected surviving path %v", lvl, ids)
			}
			return true
		})
	}
}

// TestSpaceBytesTracksNodes pins SpaceBytes to the real node size and
// the index entries, and the node size to its allocation size class.
func TestSpaceBytesTracksNodes(t *testing.T) {
	// A Node is 152 B and allocates from the 160 B size class; a Node
	// over 160 B would cost the next class (176 B) per stored partial
	// match.
	if sz := unsafe.Sizeof(Node{}); sz != 152 || nodeBytes != int64(sz) {
		t.Fatalf("Node is %d B (SpaceBytes counts %d), want 152", sz, nodeBytes)
	}
	tr := New(2)
	if tr.SpaceBytes() != 0 {
		t.Error("empty tree should cost 0")
	}
	a := tr.InsertEdge(1, nil, edge(1))
	tr.InsertEdge(2, a, edge(2))
	// Two nodes, each the only one under its edge-index key.
	if got, want := tr.SpaceBytes(), 2*nodeBytes+2*indexEntryBytes; got != want {
		t.Errorf("SpaceBytes = %d, want %d", got, want)
	}
	dead := deleteLevel(tr, 1, 1, nil, nil)
	deleteLevel(tr, 2, 1, dead, nil)
	if got := tr.SpaceBytes(); got != 0 {
		t.Errorf("SpaceBytes after expiry = %d, want 0", got)
	}
}

package mstree

import (
	"reflect"
	"testing"

	"timingsubg/internal/graph"
)

func edge(id int64) graph.Edge {
	return graph.Edge{ID: graph.EdgeID(id), Time: graph.Timestamp(id)}
}

// deleteLevel runs DeleteLevel into a fresh casualty slice.
func deleteLevel(t *Tree, lvl int, parents, deadSubs []Slot) []Slot {
	return t.DeleteLevel(lvl, parents, deadSubs, nil)
}

// expireEdge runs ExpireEdge into a fresh casualty slice.
func expireEdge(t *Tree, id int64) []Slot {
	return t.ExpireEdge(graph.EdgeID(id), nil)
}

// collect returns the edge IDs of live nodes at a level.
func collect(t *Tree, lvl int) []int64 {
	var out []int64
	t.Each(lvl, func(s Slot) bool {
		out = append(out, int64(t.Edge(lvl, s).ID))
		return true
	})
	return out
}

// TestFig10 rebuilds the paper's Fig. 10 MS-tree: matches {σ1}, {σ1,σ3},
// {σ1,σ3,σ4}, {σ1,σ3,σ9} share prefixes, and expiring σ1 removes the
// whole tree.
func TestFig10(t *testing.T) {
	tr := New(3)
	n1 := tr.InsertEdge(1, NoSlot, edge(1)) // σ1
	n3 := tr.InsertEdge(2, n1, edge(3))     // σ1→σ3
	n4 := tr.InsertEdge(3, n3, edge(4))     // σ1→σ3→σ4
	n9 := tr.InsertEdge(3, n3, edge(9))     // σ1→σ3→σ9 shares the prefix
	if tr.Count(1) != 1 || tr.Count(2) != 1 || tr.Count(3) != 2 {
		t.Fatalf("level counts: want 1/1/2, got %d/%d/%d", tr.Count(1), tr.Count(2), tr.Count(3))
	}
	if tr.Nodes() != 4 {
		t.Errorf("4 nodes store 4 partial matches with shared prefixes, got %d", tr.Nodes())
	}
	// Path reconstruction.
	p := tr.PathEdges(3, n4, nil)
	if len(p) != 3 || p[0].ID != 1 || p[1].ID != 3 || p[2].ID != 4 {
		t.Errorf("path of σ4 node: got %v", p)
	}
	p = tr.PathEdges(3, n9, p)
	if p[2].ID != 9 || p[0].ID != 1 {
		t.Errorf("path of σ9 node: got %v", p)
	}

	// Expire σ1: the paper's cascade deletes σ3, then σ4 and σ9.
	dead1 := expireEdge(tr, 1)
	if len(dead1) != 1 || dead1[0] != n1 {
		t.Fatalf("level 1 casualties: %v", dead1)
	}
	dead2 := deleteLevel(tr, 2, dead1, nil)
	if len(dead2) != 1 || dead2[0] != n3 {
		t.Fatalf("level 2 casualties: %v", dead2)
	}
	dead3 := deleteLevel(tr, 3, dead2, nil)
	if len(dead3) != 2 {
		t.Fatalf("level 3 casualties: want σ4 and σ9, got %v", dead3)
	}
	if tr.Nodes() != 0 {
		t.Errorf("tree must be empty, %d nodes remain", tr.Nodes())
	}
}

// TestDeleteMidLevel expires a level-1 head whose child sits in the
// middle of level 2's list: the cascade must unlink it there and leave
// both neighbours in order.
func TestDeleteMidLevel(t *testing.T) {
	tr := New(2)
	a := tr.InsertEdge(1, NoSlot, edge(1))
	b := tr.InsertEdge(1, NoSlot, edge(2))
	c := tr.InsertEdge(1, NoSlot, edge(3))
	tr.InsertEdge(2, b, edge(10))
	tr.InsertEdge(2, a, edge(11))
	tr.InsertEdge(2, c, edge(12))

	dead := expireEdge(tr, 1)
	if len(dead) != 1 || dead[0] != a {
		t.Fatalf("want σ1's node, got %v", dead)
	}
	if got := collect(tr, 1); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("level list after head expiry: %v", got)
	}
	dead2 := deleteLevel(tr, 2, dead, nil)
	// A casualty keeps its payload until its slot is reused.
	if len(dead2) != 1 || tr.Edge(2, dead2[0]).ID != 11 {
		t.Fatalf("cascade: want σ11 child, got %v", dead2)
	}
	if got := collect(tr, 2); len(got) != 2 || got[0] != 10 || got[1] != 12 {
		t.Errorf("level 2 after mid-level cascade: %v", got)
	}
	// An edge that is not level 1's head has no level-1 node to expire.
	if dead := expireEdge(tr, 3); len(dead) != 0 {
		t.Errorf("σ3 is not the head, ExpireEdge removed %v", dead)
	}
}

func TestGlobalTreeSubIndex(t *testing.T) {
	// Sub-tree with two complete matches (leaves), global tree referencing
	// them.
	sub := New(1)
	leafA := sub.InsertEdge(1, NoSlot, edge(1))
	leafB := sub.InsertEdge(1, NoSlot, edge(2))

	// The sub-tree doubles as the first sub-list and the one level 2
	// joins.
	g := NewGlobal(2, sub)
	gA := g.InsertSub(2, leafB, leafA) // parent from "first sub list", sub = leafA
	if gA == NoSlot {
		t.Fatal("InsertSub failed")
	}
	if g.Count(2) != 1 {
		t.Fatal("global node must be live")
	}
	// Killing leafA (the Sub reference) removes the global node via the
	// dependency index.
	deadSubs := expireEdge(sub, 1)
	if len(deadSubs) != 1 || deadSubs[0] != leafA {
		t.Fatalf("want leafA dead, got %v", deadSubs)
	}
	gDead := deleteLevel(g, 2, nil, deadSubs)
	if len(gDead) != 1 || gDead[0] != gA {
		t.Fatalf("global node must die with its submatch, got %v", gDead)
	}

	// Killing leafB (the parent) removes global children via the child
	// list.
	gB := g.InsertSub(2, leafB, leafB)
	if gB == NoSlot {
		t.Fatal("InsertSub failed")
	}
	deadB := expireEdge(sub, 2)
	gDead2 := deleteLevel(g, 2, deadB, nil)
	if len(gDead2) != 1 || gDead2[0] != gB {
		t.Fatalf("global node must die with its parent, got %v", gDead2)
	}
}

// TestSpaceBytesTracksNodes pins the slot layout the package doc
// states and SpaceBytes to it: live slots plus index entries.
func TestSpaceBytesTracksNodes(t *testing.T) {
	if nodeBytes != 40 || edgeBytes != 40 || subBytes != 12 || joinEntryB != 16 || depEntryB != 8 {
		t.Fatalf("node/edge/sub payloads and join/dep entries are %d/%d/%d/%d/%d B, want 40/40/12/16/8",
			nodeBytes, edgeBytes, subBytes, joinEntryB, depEntryB)
	}
	tr := New(2)
	if tr.SpaceBytes() != 0 || tr.ReservedBytes() != 0 {
		t.Error("an empty tree should cost and reserve 0")
	}
	a := tr.InsertEdge(1, NoSlot, edge(1))
	tr.InsertEdge(2, a, edge(2))
	// Two 80 B sub-tree slots and no index: neither level has a key
	// function.
	if got, want := tr.SpaceBytes(), int64(2*80); got != want {
		t.Errorf("SpaceBytes = %d, want %d", got, want)
	}
	g := NewGlobal(2, tr)
	g.SetLevelKey(2, func(Slot) uint64 { return 7 })
	g.InsertSub(2, tr.InsertEdge(2, a, edge(3)), a)
	// One 52 B global slot, one 16 B join-table entry and one 8 B
	// dependency bucket.
	if got, want := g.SpaceBytes(), int64(52+joinEntryB+depEntryB); got != want {
		t.Errorf("global SpaceBytes = %d, want %d", got, want)
	}
	dead := expireEdge(tr, 1)
	leaves := deleteLevel(tr, 2, dead, nil)
	deleteLevel(g, 2, leaves, nil)
	if got := tr.SpaceBytes() + g.SpaceBytes(); got != 0 {
		t.Errorf("SpaceBytes after expiry = %d, want 0", got)
	}
	if tr.ReservedBytes() == 0 || g.ReservedBytes() == 0 {
		t.Error("expiry released the slabs: the release policy keeps them")
	}
}

// TestSlabsHoldNoPointers walks the slab and index types with reflect:
// a pointer, slice, map, string, interface, func or chan in any of them
// would make the GC scan tree state again.
func TestSlabsHoldNoPointers(t *testing.T) {
	var lv level
	types := []reflect.Type{
		reflect.TypeOf(lv.nodes).Elem(),
		reflect.TypeOf(lv.edges).Elem(),
		reflect.TypeOf(lv.subs).Elem(),
		reflect.TypeOf(lv.joinIdx.entries).Elem(),
		reflect.TypeOf(lv.depIdx.buckets).Elem(),
	}
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %v: the GC would scan it", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		}
	}
	for _, typ := range types {
		check(typ.String(), typ)
	}
}

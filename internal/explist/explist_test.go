package explist

import (
	"reflect"
	"testing"

	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/query"
)

// pathSetup builds the TC-query a→b→c→d with full order along the path
// and returns (query, its single TC-subquery).
func pathSetup(t *testing.T) (*query.Query, *query.TCSubquery, []graph.Label) {
	t.Helper()
	labels := graph.NewLabels()
	ls := []graph.Label{labels.Intern("a"), labels.Intern("b"), labels.Intern("c"), labels.Intern("d")}
	b := query.NewBuilder()
	vs := make([]query.VertexID, 4)
	for i, l := range ls {
		vs[i] = b.AddVertex(l)
	}
	e1 := b.AddEdge(vs[0], vs[1])
	e2 := b.AddEdge(vs[1], vs[2])
	e3 := b.AddEdge(vs[2], vs[3])
	b.Before(e1, e2)
	b.Before(e2, e3)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dec := query.Decompose(q)
	if dec.K() != 1 {
		t.Fatalf("path with full order must be one TC-query, got k=%d", dec.K())
	}
	return q, dec.Subqueries[0], ls
}

// subLists returns both backends for the same subquery.
func subLists(q *query.Query, sub *query.TCSubquery) map[string]SubList {
	return map[string]SubList{
		"tree": NewTreeSubList(q, sub),
		"flat": NewFlatSubList(q, sub),
	}
}

func TestSubListInsertEachDelete(t *testing.T) {
	q, sub, ls := pathSetup(t)
	for name, l := range subLists(q, sub) {
		t.Run(name, func(t *testing.T) {
			if l.Depth() != 3 {
				t.Fatalf("depth: want 3, got %d", l.Depth())
			}
			d1 := graph.Edge{ID: 1, From: 10, To: 20, FromLabel: ls[0], ToLabel: ls[1], Time: 1}
			d2 := graph.Edge{ID: 2, From: 20, To: 30, FromLabel: ls[1], ToLabel: ls[2], Time: 2}
			d3 := graph.Edge{ID: 3, From: 30, To: 40, FromLabel: ls[2], ToLabel: ls[3], Time: 3}
			h1 := l.Insert(1, NoHandle, d1)
			if h1 == NoHandle {
				t.Fatal("level-1 insert failed")
			}
			h2 := l.Insert(2, h1, d2)
			h3 := l.Insert(3, h2, d3)
			if h3 == NoHandle {
				t.Fatal("level-3 insert failed")
			}
			if l.Count(1) != 1 || l.Count(2) != 1 || l.Count(3) != 1 {
				t.Fatalf("counts: %d/%d/%d", l.Count(1), l.Count(2), l.Count(3))
			}

			// Each materializes correct partial matches.
			l.Each(2, func(h Handle, m *match.Match) bool {
				if m.NumBoundEdges() != 2 {
					t.Errorf("level 2 match must bind 2 edges, got %d", m.NumBoundEdges())
				}
				if m.Edges[sub.Seq[0]].ID != 1 || m.Edges[sub.Seq[1]].ID != 2 {
					t.Errorf("wrong level-2 binding: %s", m)
				}
				return true
			})
			// Materialize returns an independent copy.
			mm := l.Materialize(3, h3)
			if !mm.Complete(q) {
				t.Error("level-3 match must be complete")
			}
			if err := mm.Verify(q); err != nil {
				t.Error(err)
			}

			// Expire d1: everything cascades away.
			var cas []Handle
			for lvl := 1; lvl <= 3; lvl++ {
				cas = l.DeleteLevel(lvl, d1.ID, cas, nil)
				if len(cas) != 1 {
					t.Fatalf("level %d: want 1 casualty, got %d", lvl, len(cas))
				}
			}
			if l.Count(1)+l.Count(2)+l.Count(3) != 0 {
				t.Error("list must be empty after expiry")
			}
		})
	}
}

func TestSubListSharedPrefixSpace(t *testing.T) {
	q, sub, ls := pathSetup(t)
	tree := NewTreeSubList(q, sub)
	flat := NewFlatSubList(q, sub)
	for _, l := range []SubList{tree, flat} {
		h1 := l.Insert(1, NoHandle, graph.Edge{ID: 1, From: 10, To: 20, FromLabel: ls[0], ToLabel: ls[1], Time: 1})
		h2 := l.Insert(2, h1, graph.Edge{ID: 2, From: 20, To: 30, FromLabel: ls[1], ToLabel: ls[2], Time: 2})
		// Fan out 20 level-3 matches sharing the same prefix.
		for i := int64(0); i < 20; i++ {
			l.Insert(3, h2, graph.Edge{ID: 3 + graph.EdgeID(i), From: 30, To: 40 + graph.VertexID(i),
				FromLabel: ls[2], ToLabel: ls[3], Time: graph.Timestamp(3 + i)})
		}
	}
	if tree.SpaceBytes() >= flat.SpaceBytes() {
		t.Errorf("MS-tree must compress shared prefixes: tree=%d flat=%d",
			tree.SpaceBytes(), flat.SpaceBytes())
	}
}

// globalSetup builds a 2-subquery decomposition: a→b (Q1) and b→c (Q2),
// no timing order, so k=2.
func globalSetup(t *testing.T) (*query.Query, *query.Decomposition, []graph.Label) {
	t.Helper()
	labels := graph.NewLabels()
	ls := []graph.Label{labels.Intern("a"), labels.Intern("b"), labels.Intern("c")}
	b := query.NewBuilder()
	va, vb, vc := b.AddVertex(ls[0]), b.AddVertex(ls[1]), b.AddVertex(ls[2])
	b.AddEdge(va, vb)
	b.AddEdge(vb, vc)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dec := query.Decompose(q)
	if dec.K() != 2 {
		t.Fatalf("want k=2, got %d", dec.K())
	}
	return q, dec, ls
}

func TestGlobalListJoinAndDelete(t *testing.T) {
	q, dec, ls := globalSetup(t)
	type backend struct {
		name string
		sub1 SubList
		sub2 SubList
		g    GlobalList
	}
	ts := []*TreeSubList{NewTreeSubList(q, dec.Subqueries[0]), NewTreeSubList(q, dec.Subqueries[1])}
	fs := []*FlatSubList{NewFlatSubList(q, dec.Subqueries[0]), NewFlatSubList(q, dec.Subqueries[1])}
	backends := []backend{
		{"tree", ts[0], ts[1], NewTreeGlobalList(q, dec, ts)},
		{"flat", fs[0], fs[1], NewFlatGlobalList(q, dec, fs)},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			qe1 := dec.Subqueries[0].Seq[0]
			qe2 := dec.Subqueries[1].Seq[0]
			// Data edges depend on which query edge landed in which sub.
			// Map query vertex v to data vertex 10*(v+1) so shared
			// query vertices share data endpoints regardless of which
			// query edge landed in which subquery.
			mkFor := func(qe query.EdgeID, id int64, tm int64) graph.Edge {
				e := q.Edge(qe)
				return graph.Edge{ID: graph.EdgeID(id),
					From: graph.VertexID(10 * (int64(e.From) + 1)), To: graph.VertexID(10 * (int64(e.To) + 1)),
					FromLabel: q.VertexLabel(e.From), ToLabel: q.VertexLabel(e.To), Time: graph.Timestamp(tm)}
			}
			_ = ls
			d1 := mkFor(qe1, 1, 1)
			d2 := mkFor(qe2, 2, 2)
			h1 := be.sub1.Insert(1, NoHandle, d1)
			h2 := be.sub2.Insert(1, NoHandle, d2)
			gh := be.g.Insert(2, h1, h2)
			if gh == NoHandle {
				t.Fatal("global insert failed")
			}
			if be.g.Count(2) != 1 {
				t.Fatalf("global count: want 1, got %d", be.g.Count(2))
			}
			be.g.Each(2, func(h Handle, m *match.Match) bool {
				if !m.Complete(q) {
					t.Errorf("global match must be complete, got %s", m)
				} else if err := m.Verify(q); err != nil {
					t.Error(err)
				}
				return true
			})
			mm := be.g.Materialize(2, gh)
			if !mm.Complete(q) {
				t.Error("materialized global match must be complete")
			}

			// Expire d2 (the Sub side): global entry must die.
			deadSubs := be.sub2.DeleteLevel(1, d2.ID, nil, nil)
			if len(deadSubs) != 1 {
				t.Fatalf("sub2 casualty missing")
			}
			gDead := be.g.DeleteLevel(2, deadSubs, nil, d2.ID, nil)
			if len(gDead) != 1 {
				t.Fatalf("global casualty missing")
			}
			if be.g.Count(2) != 0 {
				t.Error("global list must be empty")
			}
		})
	}
}

func TestGlobalParentSideExpiry(t *testing.T) {
	q, dec, _ := globalSetup(t)
	sub1 := NewTreeSubList(q, dec.Subqueries[0])
	sub2 := NewTreeSubList(q, dec.Subqueries[1])
	g := NewTreeGlobalList(q, dec, []*TreeSubList{sub1, sub2})
	qe1 := dec.Subqueries[0].Seq[0]
	qe2 := dec.Subqueries[1].Seq[0]
	mkFor := func(qe query.EdgeID, id int64, tm int64) graph.Edge {
		e := q.Edge(qe)
		return graph.Edge{ID: graph.EdgeID(id),
			From: graph.VertexID(10 * (int64(e.From) + 1)), To: graph.VertexID(10 * (int64(e.To) + 1)),
			FromLabel: q.VertexLabel(e.From), ToLabel: q.VertexLabel(e.To), Time: graph.Timestamp(tm)}
	}
	d1 := mkFor(qe1, 1, 1)
	d2 := mkFor(qe2, 2, 2)
	h1 := sub1.Insert(1, NoHandle, d1)
	h2 := sub2.Insert(1, NoHandle, d2)
	if g.Insert(2, h1, h2) == NoHandle {
		t.Fatal("global insert failed")
	}
	// Expire d1 (the parent side, which is the aliased L₀¹).
	dead := sub1.DeleteLevel(1, d1.ID, nil, nil)
	gDead := g.DeleteLevel(2, nil, dead, d1.ID, nil)
	if len(gDead) != 1 {
		t.Fatalf("global entry must die with its parent, got %d", len(gDead))
	}
}

func TestEachScratchIsolation(t *testing.T) {
	q, sub, ls := pathSetup(t)
	l := NewTreeSubList(q, sub)
	h1 := l.Insert(1, NoHandle, graph.Edge{ID: 1, From: 10, To: 20, FromLabel: ls[0], ToLabel: ls[1], Time: 1})
	l.Insert(1, NoHandle, graph.Edge{ID: 2, From: 11, To: 21, FromLabel: ls[0], ToLabel: ls[1], Time: 2})
	_ = h1
	// The scratch match is reused across iterations: retaining requires
	// Clone. Verify the documented contract.
	var first *match.Match
	var firstKey string
	l.Each(1, func(_ Handle, m *match.Match) bool {
		if first == nil {
			first = m
			firstKey = m.Key()
		}
		return true
	})
	if first.Key() == firstKey {
		t.Log("scratch reuse means the retained pointer now shows the last row (documented)")
	}
	keys := map[string]bool{}
	l.Each(1, func(_ Handle, m *match.Match) bool {
		keys[m.Key()] = true
		return true
	})
	if len(keys) != 2 {
		t.Fatalf("want 2 distinct matches, got %v", keys)
	}
}

// TestHandleTypesAreOpaque checks that both backends hand out handles
// of the one integer Handle type: distinct, never NoHandle, and each
// resolving to its own match, also past the 256 small integers an
// interface could hold without allocating.
func TestHandleTypesAreOpaque(t *testing.T) {
	if k := reflect.TypeOf(NoHandle).Kind(); k != reflect.Uint32 {
		t.Fatalf("Handle is a %v, want a uint32 slot", k)
	}
	q, sub, ls := pathSetup(t)
	for name, l := range subLists(q, sub) {
		seen := map[Handle]bool{}
		for i := int64(1); i <= 300; i++ {
			h := l.Insert(1, NoHandle, graph.Edge{ID: graph.EdgeID(i), From: graph.VertexID(i), To: 20,
				FromLabel: ls[0], ToLabel: ls[1], Time: graph.Timestamp(i)})
			if h == NoHandle || seen[h] {
				t.Fatalf("%s: insert %d returned handle %d (NoHandle or reused while live)", name, i, h)
			}
			seen[h] = true
			if m := l.Materialize(1, h); m.Edges[sub.Seq[0]].ID != graph.EdgeID(i) {
				t.Fatalf("%s: handle %d resolves to %s, want edge %d", name, h, m, i)
			}
		}
	}
}

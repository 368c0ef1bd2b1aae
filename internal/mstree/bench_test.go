package mstree

import (
	"testing"

	"timingsubg/internal/graph"
)

// BenchmarkInsert measures the O(1) insert claim (Section IV-B): cost
// must not grow with tree size.
func BenchmarkInsert(b *testing.B) {
	tr := New(3)
	parent := tr.InsertEdge(1, NoSlot, edge(0))
	mid := tr.InsertEdge(2, parent, edge(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.InsertEdge(3, mid, edge(int64(i+2)))
	}
}

// BenchmarkEach measures per-match read cost at a level (linear in
// matches enumerated, Section IV-B).
func BenchmarkEach(b *testing.B) {
	tr := New(2)
	p := tr.InsertEdge(1, NoSlot, edge(0))
	for i := 0; i < 1024; i++ {
		tr.InsertEdge(2, p, edge(int64(i+1)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tr.Each(2, func(Slot) bool {
			n++
			return true
		})
		if n != 1024 {
			b.Fatal("tree drifted")
		}
	}
}

// BenchmarkPathEdges measures match materialization (backtracking).
func BenchmarkPathEdges(b *testing.B) {
	tr := New(8)
	n := NoSlot
	for lvl := 1; lvl <= 8; lvl++ {
		n = tr.InsertEdge(lvl, n, edge(int64(lvl)))
	}
	var buf []graph.Edge
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.PathEdges(8, n, buf)
	}
}

// BenchmarkDeleteExpired measures a window slide's expiry: the
// watermark sweep pops the expired level-1 prefix and cascades through
// its child lists, so the cost is linear in deleted matches and
// independent of survivors (the claim behind Fig. 15's maintenance
// advantage). The casualty buffers are reused, as the engine's are.
func BenchmarkDeleteExpired(b *testing.B) {
	b.ReportAllocs()
	var cas, dead []Slot
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := New(2)
		victim := tr.InsertEdge(1, NoSlot, edge(1))
		// Survivors that expiry must not touch.
		keep := tr.InsertEdge(1, NoSlot, edge(2))
		for j := 0; j < 64; j++ {
			tr.InsertEdge(2, victim, edge(int64(10+j)))
		}
		for j := 0; j < 4096; j++ {
			tr.InsertEdge(2, keep, edge(int64(1000+j)))
		}
		b.StartTimer()
		cas = tr.ExpirePrefix(2, cas[:0])
		dead = tr.DeleteLevel(2, cas, nil, dead[:0])
		if len(cas) != 1 || len(dead) != 64 || tr.Nodes() != 4097 {
			b.Fatalf("expiry drifted: %d/%d, %d left", len(cas), len(dead), tr.Nodes())
		}
	}
}

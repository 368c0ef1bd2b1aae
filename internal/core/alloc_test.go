package core

import (
	"testing"

	"timingsubg/internal/graph"
	"timingsubg/internal/match"
)

// TestInsertAllocs pins the serial slide's allocation budget at zero
// once warm: the per-call probe state, counters, callbacks and recycled
// matches (those lent to OnMatch too) live in the engine's owned scratch, the expiry sweeps'
// casualty buffers are engine-owned too, and the MS-tree stores nodes in
// per-level slabs with free lists, its indexes threaded through the
// slots themselves. So neither a discarded edge, nor an edge that
// completes joins, nor a sliding cycle allocates. A slab that must grow
// does so by append, O(log n) times over n stores; AllocsPerRun's
// integer mean rounds those away in the join subtest, whose state only
// grows. The scratch is not a sync.Pool, so the counts hold under -race
// too.
func TestInsertAllocs(t *testing.T) {
	q, dec, _, _ := benchQuery(t)
	la, lb, lc, ld := q.VertexLabel(0), q.VertexLabel(1), q.VertexLabel(2), q.VertexLabel(3)

	t.Run("discardable", func(t *testing.T) {
		eng := New(q, Config{Decomposition: dec})
		// b→c is second in its timing sequence and no a→b is stored.
		d := graph.Edge{From: 20, To: 30, FromLabel: lb, ToLabel: lc}
		allocs := testing.AllocsPerRun(100, func() {
			d.ID++
			d.Time++
			eng.Insert(d)
		})
		if allocs != 0 {
			t.Fatalf("discardable Insert: %v allocs, want 0", allocs)
		}
		if got := eng.Stats().Discarded.Load(); got != 101 {
			t.Fatalf("Discarded = %d, want 101", got)
		}
	})

	// The join cells run without and with a callback: an emitted match is
	// lent to OnMatch and returns to the free-list when it returns, so a
	// reported match costs nothing either.
	joinCell := func(t *testing.T, onMatch func(*match.Match)) {
		eng := New(q, Config{Decomposition: dec, OnMatch: onMatch})
		// Three stored a→b→c prefixes through c = 30; every c→d then
		// completes one join per prefix.
		var d graph.Edge
		push := func(from, to graph.VertexID, fl, tl graph.Label) {
			d.ID++
			d.Time++
			d.From, d.To, d.FromLabel, d.ToLabel = from, to, fl, tl
			eng.ProcessBatch(d, nil)
		}
		for a := graph.VertexID(10); a < 13; a++ {
			push(a, 20, la, lb)
		}
		push(20, 30, lb, lc)
		st := eng.Stats()
		ins0, matches0 := st.PartialIns.Load(), st.Matches.Load()
		const runs = 100
		next := graph.VertexID(100)
		allocs := testing.AllocsPerRun(runs, func() {
			next++
			push(30, next, lc, ld)
		})
		stored := float64(st.PartialIns.Load()-ins0) / (runs + 1)
		if got := st.Matches.Load() - matches0; got != 3*(runs+1) {
			t.Fatalf("Matches delta = %d, want %d: the c→d edges must complete joins", got, 3*(runs+1))
		}
		if allocs != 0 {
			t.Fatalf("join-completing ProcessBatch: %v allocs storing %v partial matches, want 0", allocs, stored)
		}
	}
	t.Run("join", func(t *testing.T) { joinCell(t, nil) })
	t.Run("join-OnMatch", func(t *testing.T) {
		var seen graph.VertexID
		joinCell(t, func(m *match.Match) { seen += m.Vtx[0] })
		if seen == 0 {
			t.Fatal("OnMatch saw no match")
		}
	})

	// Each feed slides the window; both must recycle their casualty
	// buffers and the slots the slide frees, so once the window is full
	// an expiring cycle allocates nothing.
	t.Run("expiry", func(t *testing.T) {
		for _, feed := range []struct {
			name    string
			process func(eng *Engine, d graph.Edge, expired []graph.Edge)
		}{
			{"batched", (*Engine).ProcessBatch},
			{"per-edge", (*Engine).Process},
		} {
			t.Run(feed.name, func(t *testing.T) {
				eng := New(q, Config{Decomposition: dec})
				st := graph.NewStream(30)
				var d graph.Edge
				push := func(from, to graph.VertexID, fl, tl graph.Label) {
					d.Time++
					d.From, d.To, d.FromLabel, d.ToLabel = from, to, fl, tl
					stored, expired, err := st.Push(d)
					if err != nil {
						t.Fatal(err)
					}
					feed.process(eng, stored, expired)
				}
				// One cycle stores a fresh a→b→c path through c = 30 and a
				// fresh c→d, which joins every c→d and every path still in
				// the window; once the window is full, each push slides one
				// edge out and with it the partial matches that edge was
				// part of.
				v := graph.VertexID(1000)
				cycle := func() {
					v += 3
					push(v, v+1, la, lb)
					push(v+1, 30, lb, lc)
					push(30, v+2, lc, ld)
				}
				for range 50 {
					cycle()
				}
				st0 := eng.Stats()
				ins0, del0 := st0.PartialIns.Load(), st0.PartialDel.Load()
				const runs = 100
				allocs := testing.AllocsPerRun(runs, cycle)
				stored := float64(st0.PartialIns.Load()-ins0) / (runs + 1)
				killed := float64(st0.PartialDel.Load()-del0) / (runs + 1)
				if killed == 0 {
					t.Fatal("the slides killed no partial match: the subtest is vacuous")
				}
				if allocs != 0 {
					t.Fatalf("sliding cycle: %v allocs storing %v and killing %v partial matches, want 0", allocs, stored, killed)
				}
			})
		}
	})
}

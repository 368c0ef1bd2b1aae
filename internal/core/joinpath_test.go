package core

import (
	"math/rand"
	"slices"
	"testing"

	"timingsubg/internal/datagen"
	"timingsubg/internal/explist"
	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/querygen"
)

// eachLeft calls fn with each stored match of global item lvl, the left
// side of join lvl+1; item 1 is L₀¹, sub-list 1's last item.
func (e *Engine) eachLeft(lvl int, fn func(explist.Handle, *match.Match) bool) {
	if lvl == 1 {
		e.subs[0].Each(e.subs[0].Depth(), fn)
		return
	}
	e.global.Each(lvl, fn)
}

// materializeLeft rebuilds the stored match h of global item lvl.
func (e *Engine) materializeLeft(lvl int, h explist.Handle) *match.Match {
	if lvl == 1 {
		return e.subs[0].Materialize(e.subs[0].Depth(), h)
	}
	return e.global.Materialize(lvl, h)
}

// sameMatch reports whether a and b bind the same vertices and edges.
func sameMatch(a, b *match.Match) bool {
	return a.EdgeMask == b.EdgeMask && slices.Equal(a.Vtx, b.Vtx) && slices.Equal(a.Edges, b.Edges)
}

// joinCheckCounts tallies checkCompiledJoins' candidates.
type joinCheckCounts struct{ compared, shared, passed int }

// checkCompiledJoins holds the compiled join checks to the reference on
// the engine's current state. For every join level x and each stored
// side, it takes every stored match of the other side as a delta row,
// enumerates the candidates the cascade would scan for it, and checks
// for each candidate that
//   - the path, bound in the compiled order, is the stored match;
//   - sharedOK and tailOK give levelJoin.sharedEqual's and
//     levelJoin.compatibleTail's verdicts on the materialized pair;
//   - a passing pair binds into the reference merge of the two sides.
func checkCompiledJoins(t testing.TB, e *Engine, n *joinCheckCounts) {
	t.Helper()
	var ex explist.Scratch
	var row deltaRow
	q := e.q
	check := func(x int, pj *pathJoin, delta, stored *match.Match, path []graph.Edge, refShared, refTail bool) {
		n.compared++
		bound := match.New(q)
		pj.order.Bind(q, bound, path)
		if !sameMatch(bound, stored) {
			t.Fatalf("join %d: path binds %s, stored match is %s", x, bound, stored)
		}
		shared, tail := pj.sharedOK(path, &row), pj.tailOK(path, &row)
		if shared != refShared || tail != refTail {
			t.Fatalf("join %d: compiled shared/tail %v/%v, reference %v/%v\ndelta  %s\nstored %s",
				x, shared, tail, refShared, refTail, delta, stored)
		}
		if !shared {
			return
		}
		n.shared++
		if !tail {
			return
		}
		n.passed++
		got := delta.Clone()
		pj.order.Bind(q, got, path)
		if want := stored.Merge(delta); !sameMatch(got, want) {
			t.Fatalf("join %d: bound pair %s, merge %s", x, got, want)
		}
	}
	for x := 2; x <= e.K(); x++ {
		j := &e.joins[x]
		right := e.subs[x-1]
		depth := right.Depth()
		// The stored side is the right one: every left match is a delta.
		e.eachLeft(x-1, func(_ explist.Handle, m *match.Match) bool {
			delta := m.Clone()
			pj := &j.storedRight
			pj.load(&row, delta)
			right.EachJoinCandidate(explist.JoinFingerprint(delta, j.shared), &ex, func(h explist.Handle, path []graph.Edge) bool {
				stored := right.Materialize(depth, h)
				check(x, pj, delta, stored, path, j.sharedEqual(delta, stored), j.compatibleTail(delta, stored))
				return true
			})
			return true
		})
		// The stored side is the left one: every right match is a delta.
		right.Each(depth, func(_ explist.Handle, m *match.Match) bool {
			delta := m.Clone()
			pj := &j.storedLeft
			pj.load(&row, delta)
			e.eachGlobalCandidate(x-1, explist.JoinFingerprint(delta, j.shared), &ex, func(h explist.Handle, path []graph.Edge) bool {
				stored := e.materializeLeft(x-1, h)
				check(x, pj, delta, stored, path, j.sharedEqual(stored, delta), j.compatibleTail(stored, delta))
				return true
			})
			return true
		})
	}
}

// roughen rewrites a share of a generated stream into the shapes the
// join checks must see: self-loops (an edge between equally labelled
// endpoints turned back onto its source) and duplicate endpoints (an
// edge repeating a recent edge's endpoints and labels under its own ID
// and time).
func roughen(edges []graph.Edge, rng *rand.Rand) {
	for i := range edges {
		e := &edges[i]
		switch r := rng.Intn(10); {
		case r == 0 && e.FromLabel == e.ToLabel:
			e.To = e.From
		case r == 1 && i > 0:
			src := edges[max(0, i-1-rng.Intn(20))]
			e.From, e.To, e.FromLabel, e.ToLabel, e.EdgeLabel = src.From, src.To, src.FromLabel, src.ToLabel, src.EdgeLabel
		}
	}
}

// compiledJoinRun builds a k ≥ 2 query over a roughened dataset stream
// and drives it through an engine of each storage backend, checking the
// compiled joins against the reference every few slides. It returns
// false when no query with that decomposition size could be drawn.
func compiledJoinRun(t testing.TB, ds datagen.Dataset, seed int64, size, k int, window graph.Timestamp, n *joinCheckCounts) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := datagen.New(ds, graph.NewLabels(), datagen.Config{Vertices: 30 + rng.Intn(30), Seed: seed}).Take(400)
	roughen(edges, rng)
	q, _, err := querygen.GenerateWithK(edges[:200], size, k, seed)
	if err != nil {
		return false
	}
	for _, storage := range []Storage{MSTree, Independent} {
		eng := New(q, Config{Storage: storage})
		st := graph.NewStream(window)
		for i, e := range edges {
			stored, expired, err := st.Push(e)
			if err != nil {
				t.Fatal(err)
			}
			eng.ProcessBatch(stored, expired)
			if i%16 == 15 {
				checkCompiledJoins(t, eng, n)
			}
		}
	}
	return true
}

// TestCompiledJoinMatchesReference is the equivalence property of the
// compiled join: over random queries with two to four subqueries, on
// SocialStream and WikiTalk streams with self-loops and duplicate
// endpoints mixed in, on both storage backends, every candidate the
// cascade scans gets the reference's verdict, and every pair that joins
// binds into the reference merge.
func TestCompiledJoinMatchesReference(t *testing.T) {
	var n joinCheckCounts
	runs := 0
	for trial := range 16 {
		ds := []datagen.Dataset{datagen.SocialStream, datagen.WikiTalk}[trial%2]
		if compiledJoinRun(t, ds, int64(trial+1), 3+trial%4, 2+trial%3, graph.Timestamp(30+3*trial), &n) {
			runs++
		}
	}
	t.Logf("%d runs: %d candidates compared, %d shared, %d joined", runs, n.compared, n.shared, n.passed)
	if runs < 8 || n.passed == 0 || n.shared == n.passed || n.compared == n.shared {
		t.Fatalf("%d runs, %d candidates, %d shared, %d joined: every verdict must be exercised", runs, n.compared, n.shared, n.passed)
	}
}

// FuzzCompiledJoin runs the equivalence property on fuzzed dataset,
// seed, query shape and window.
func FuzzCompiledJoin(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(2), uint8(50))
	f.Add(int64(7), uint8(1), uint8(5), uint8(3), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, ds, size, k, window uint8) {
		dss := []datagen.Dataset{datagen.SocialStream, datagen.WikiTalk}
		sz := 2 + int(size)%5
		var n joinCheckCounts
		if !compiledJoinRun(t, dss[int(ds)%2], seed, sz, 2+int(k)%(sz-1), graph.Timestamp(10+int(window)), &n) {
			t.Skip("no query of that shape")
		}
		t.Logf("%d candidates compared, %d shared, %d joined", n.compared, n.shared, n.passed)
	})
}

// TestJoinMaterializedWitness pins what the compiled join saves on the
// social_join shape (a size-6 random-order query over a 300-vertex
// SocialStream, one edge in and one out of a 3000-edge window): the
// cascade builds a match only for a pair that joins, so
// JoinMaterialized equals the pairs the global list stores, far below
// the candidates it scans.
func TestJoinMaterializedWitness(t *testing.T) {
	labels := graph.NewLabels()
	// The served workload interns its liveness probe's labels first and
	// plants a probe pair, which no organic query edge matches, after
	// every 254 organic edges.
	canary, ping, pong := labels.Intern("canary"), labels.Intern("cping"), labels.Intern("cpong")
	sample := datagen.New(datagen.SocialStream, labels, datagen.Config{Vertices: 300, Seed: 1}).Take(3000)
	q, _, err := querygen.Generate(sample, querygen.Config{Size: 6, Order: querygen.RandomOrder, Seed: 366})
	if err != nil {
		t.Fatal(err)
	}
	gen := datagen.New(datagen.SocialStream, labels, datagen.Config{Vertices: 300, Seed: 1})
	var edges []graph.Edge
	for b := range 400 {
		edges = append(edges, gen.Take(254)...)
		a := graph.VertexID(1<<40 + 2*b)
		edges = append(edges,
			graph.Edge{From: a, To: a + 1, FromLabel: canary, ToLabel: canary, EdgeLabel: ping},
			graph.Edge{From: a + 1, To: a, FromLabel: canary, ToLabel: canary, EdgeLabel: pong})
	}
	for i := range edges {
		edges[i].ID, edges[i].Time = graph.EdgeID(i), graph.Timestamp(i+1)
	}
	eng := New(q, Config{})
	if eng.K() < 2 {
		t.Fatalf("k = %d: the query must cascade", eng.K())
	}
	globalCount := func() int64 {
		var c int64
		for lvl := 2; lvl <= eng.K(); lvl++ {
			c += int64(eng.global.Count(lvl))
		}
		return c
	}
	st := graph.NewStream(3000)
	var joined int64
	for _, e := range edges {
		stored, expired, err := st.Push(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(expired) > 0 {
			eng.DeleteBatch(expired)
		}
		before := globalCount()
		eng.Insert(stored)
		joined += globalCount() - before
	}
	s := eng.Stats()
	mat, scanned := s.JoinMaterialized.Load(), s.JoinScanned.Load()
	perEdge := func(v int64) float64 { return float64(v) / float64(len(edges)) }
	t.Logf("k=%d, per edge: %.2f scanned, %.2f materialized, %.2f joined", eng.K(), perEdge(scanned), perEdge(mat), perEdge(joined))
	if joined == 0 {
		t.Fatal("no pair joined: the witness is vacuous")
	}
	if mat != joined {
		t.Fatalf("JoinMaterialized = %d, the global list stored %d joined pairs", mat, joined)
	}
	if 10*mat > scanned {
		t.Fatalf("JoinMaterialized = %d is not far below JoinScanned = %d", mat, scanned)
	}
}

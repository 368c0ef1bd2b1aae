package core

import (
	"fmt"
	"testing"

	"timingsubg/internal/datagen"
	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/query"
	"timingsubg/internal/querygen"
	"timingsubg/internal/stats"
)

// benchQuery builds a 2-subquery decomposition query (a→b ≺-chained pair
// plus a free edge) plus compatible match halves for join benchmarks.
func benchQuery(b testing.TB) (*query.Query, *query.Decomposition, *match.Match, *match.Match) {
	b.Helper()
	labels := graph.NewLabels()
	la, lb, lc, ld := labels.Intern("a"), labels.Intern("b"), labels.Intern("c"), labels.Intern("d")
	qb := query.NewBuilder()
	va, vb, vc, vd := qb.AddVertex(la), qb.AddVertex(lb), qb.AddVertex(lc), qb.AddVertex(ld)
	e1 := qb.AddEdge(va, vb)
	e2 := qb.AddEdge(vb, vc)
	qb.AddEdge(vc, vd) // free edge: its own TC-subquery
	qb.Before(e1, e2)
	q, err := qb.Build()
	if err != nil {
		b.Fatal(err)
	}
	dec := query.Decompose(q)
	if dec.K() != 2 {
		b.Fatalf("want k=2, got %d", dec.K())
	}

	left := match.New(q)
	left.Bind(q, e1, graph.Edge{ID: 1, From: 10, To: 20, FromLabel: la, ToLabel: lb, Time: 1})
	left.Bind(q, e2, graph.Edge{ID: 2, From: 20, To: 30, FromLabel: lb, ToLabel: lc, Time: 2})
	right := match.New(q)
	right.Bind(q, query.EdgeID(2), graph.Edge{ID: 3, From: 30, To: 40, FromLabel: lc, ToLabel: ld, Time: 3})
	// Align halves with the decomposition's actual split.
	if dec.Subqueries[0].Len() != 2 {
		left, right = right, left
	}
	return q, dec, left, right
}

// BenchmarkJoinSpecialized measures the precomputed levelJoin check as
// the global cascade runs it on each candidate: compiled against a
// stored left side's raw path, with the delta row loaded once.
func BenchmarkJoinSpecialized(b *testing.B) {
	q, dec, left, right := benchQuery(b)
	joins := buildJoins(q, dec)
	pj := &joins[2].storedLeft
	path := make([]graph.Edge, len(pj.order.Edges))
	for i, qe := range pj.order.Edges {
		path[i] = left.Edges[qe]
	}
	var row deltaRow
	pj.load(&row, right)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !pj.sharedOK(path, &row) || !pj.tailOK(path, &row) {
			b.Fatal("halves must be compatible")
		}
	}
}

// BenchmarkJoinGeneric measures the generic match.Compatible the
// specialized join replaces (the ablation behind the Figs. 23-24 win).
func BenchmarkJoinGeneric(b *testing.B) {
	q, _, left, right := benchQuery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !left.Compatible(q, right) {
			b.Fatal("halves must be compatible")
		}
	}
}

// BenchmarkInsertIngest measures the full INSERT/DELETE hot path on the
// paper's datagen workloads, one cell per dataset × mode: a fixed
// stream is driven through a sliding window per iteration, so ns/op is
// end-to-end stream time. The indexed/independent pair is the
// join-index A/B — the MS-tree engine probes its vertex indexes, the
// Independent backend (Timing-IND) scans whole items; served, tsbench's
// core.join_scanned_per_edge tracks the same quantity.
// The indexed/metrics pair is the instrumentation-overhead A/B: metrics
// is the indexed engine with the join and expiry stage histograms
// attached, so its ns/op gap to indexed is the full observability cost
// on the hot path. partials/op is the partial matches one pass stores,
// so allocs/op reads against it: the MS-tree stores them in slabs that
// reuse freed slots, so its allocations stay far below it.
func BenchmarkInsertIngest(b *testing.B) {
	const nEdges = 10000
	const window = 1200
	for _, ds := range datagen.Datasets() {
		labels := graph.NewLabels()
		gen := datagen.New(ds, labels, datagen.Config{Vertices: 120, Seed: 7})
		edges := gen.Take(nEdges)
		q, _, err := querygen.Generate(edges[:2000], querygen.Config{
			Size: 4, Order: querygen.FullOrder, Seed: 11})
		if err != nil {
			b.Logf("%s: no query generated: %v", ds, err)
			continue
		}
		for _, mode := range []struct {
			name    string
			storage Storage
			metrics bool
		}{{"indexed", MSTree, false}, {"independent", Independent, false}, {"metrics", MSTree, true}} {
			b.Run(fmt.Sprintf("%s/%s", ds, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				cfg := Config{Storage: mode.storage}
				if mode.metrics {
					cfg.JoinHist = &stats.AtomicHistogram{}
					cfg.ExpiryHist = &stats.AtomicHistogram{}
				}
				var matches, partials int64
				for i := 0; i < b.N; i++ {
					eng := New(q, cfg)
					st := graph.NewStream(window)
					for _, e := range edges {
						stored, expired, err := st.Push(e)
						if err != nil {
							b.Fatal(err)
						}
						eng.Process(stored, expired)
					}
					matches = eng.Stats().Matches.Load()
					partials = eng.Stats().PartialIns.Load()
				}
				b.ReportMetric(float64(nEdges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
				b.ReportMetric(float64(matches), "matches")
				b.ReportMetric(float64(partials), "partials/op")
			})
		}
	}
}

// BenchmarkExpiryIngest is the batch-eviction A/B on the serial engine:
// the same high-churn stream driven through the batched expiry plane
// (ProcessBatch, the production path) and through edge-at-a-time
// deletes (Process, the paper's algorithm). The datagen timestamps are
// remapped into bursts — B edges a tick apart, then a gap of a full
// window — so every burst's first push evicts the whole previous burst
// in one slide. Per-edge deletes are already O(1) bucket lookups under
// the live-only join indexes, so the gap is the per-level sweep's
// amortization (DESIGN.md §15.3); served, tsbench's
// core.expiry_ns_per_slide on social_burst tracks the sweep.
func BenchmarkExpiryIngest(b *testing.B) {
	const nEdges = 10000
	const burst = 64
	const window = 256
	for _, ds := range []datagen.Dataset{datagen.NetworkFlow, datagen.SocialStream} {
		labels := graph.NewLabels()
		gen := datagen.New(ds, labels, datagen.Config{Vertices: 40, Seed: 7})
		edges := gen.Take(nEdges)
		// Bursty remap: burst i occupies [i*2W, i*2W+B), so by the next
		// burst's first edge the whole of burst i is older than the
		// window and expires as one multi-edge slide.
		for i := range edges {
			edges[i].Time = graph.Timestamp((i/burst)*2*window + i%burst)
		}
		q, _, err := querygen.Generate(edges[:2000], querygen.Config{
			Size: 3, Order: querygen.RandomOrder, Seed: 7})
		if err != nil {
			b.Logf("%s: no query generated: %v", ds, err)
			continue
		}
		for _, mode := range []struct {
			name    string
			batched bool
		}{{"batched", true}, {"peredge", false}} {
			b.Run(fmt.Sprintf("%s/%s", ds, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				var matches, evicted int64
				for i := 0; i < b.N; i++ {
					eng := New(q, Config{})
					proc := eng.Process
					if mode.batched {
						proc = eng.ProcessBatch
					}
					st := graph.NewStream(window)
					for _, e := range edges {
						stored, expired, err := st.Push(e)
						if err != nil {
							b.Fatal(err)
						}
						proc(stored, expired)
					}
					matches = eng.Stats().Matches.Load()
					evicted = eng.Stats().EdgesOut.Load()
				}
				if evicted == 0 {
					b.Fatal("remapped stream never slid the window")
				}
				if matches == 0 {
					b.Fatal("workload produced no matches; the A/B would not witness result equivalence")
				}
				b.ReportMetric(float64(nEdges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
				b.ReportMetric(float64(matches), "matches")
			})
		}
	}
}

// BenchmarkEngineInsertDiscardable measures the fast path: an edge that
// matches a non-first sequence position with an empty predecessor item
// is discarded in O(1) (Theorem 3 with |L^{i-1}| = 0).
func BenchmarkEngineInsertDiscardable(b *testing.B) {
	q, dec, _, _ := benchQuery(b)
	eng := New(q, Config{Decomposition: dec})
	// e2 (b→c) is second in its sequence; with no a→b stored, the edge is
	// discardable.
	d := graph.Edge{ID: 1, From: 20, To: 30, FromLabel: q.VertexLabel(1), ToLabel: q.VertexLabel(2), Time: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ID = graph.EdgeID(i)
		d.Time = graph.Timestamp(i + 1)
		eng.Insert(d)
	}
	if eng.Stats().Discarded.Load() == 0 {
		b.Fatal("edges should have been discarded")
	}
}

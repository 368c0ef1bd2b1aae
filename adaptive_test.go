package timingsubg

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"timingsubg/internal/query"
)

// starQuery builds a k=3 query: three edge-disjoint TC-subqueries
// around a shared hub vertex h(0):
//
//	A: a1(1)→h, B: h→b1(2), C: h→c1(3)
//
// with no timing order between subqueries (so each is its own
// TC-subquery and every permutation is prefix-connected through h).
func starQuery(t testing.TB) *Query {
	t.Helper()
	b := NewQueryBuilder()
	h := b.AddVertex(0)
	a1 := b.AddVertex(1)
	b1 := b.AddVertex(2)
	c1 := b.AddVertex(3)
	b.AddEdge(a1, h)
	b.AddEdge(h, b1)
	b.AddEdge(h, c1)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// skewedStream emits edges so that one subquery's shape dominates:
// phase selects which label class floods the stream.
func skewedStream(n int, seed int64, hot int) []Edge {
	rng := rand.New(rand.NewSource(seed))
	var out []Edge
	for i := 0; i < n; i++ {
		kind := hot
		if rng.Intn(10) == 0 { // 10% background of the other kinds
			kind = rng.Intn(3)
		}
		hub := VertexID(rng.Intn(4)) // labelled 0
		leaf := VertexID(100 + rng.Intn(50))
		var e Edge
		switch kind {
		case 0: // A-shaped: 1→0
			e = Edge{From: leaf, To: hub, FromLabel: 1, ToLabel: 0}
		case 1: // B-shaped: 0→2
			e = Edge{From: hub, To: leaf, FromLabel: 0, ToLabel: 2}
		default: // C-shaped: 0→3
			e = Edge{From: hub, To: leaf, FromLabel: 0, ToLabel: 3}
		}
		e.Time = Timestamp(i + 1)
		out = append(out, e)
	}
	return out
}

// joinOrder returns the masks of the TC-subqueries in eng's current
// join order.
func joinOrder(eng Engine) []uint64 {
	var out []uint64
	for _, s := range eng.(*solo).m.eng.Decomposition().Subqueries {
		out = append(out, s.Mask)
	}
	return out
}

func TestAdaptiveRejectsBadOptions(t *testing.T) {
	q := starQuery(t)
	if _, err := Open(Config{Query: q, Adaptive: &Adaptivity{}}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("no window accepted: %v", err)
	}
}

// TestAdaptiveMatchesPlain: adaptation must never change results. Run
// with an aggressive reoptimizer against a plain engine on streams
// that force at least one rebuild.
func TestAdaptiveMatchesPlain(t *testing.T) {
	q := starQuery(t)
	for _, hot := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("hot=%d", hot), func(t *testing.T) {
			// Drift: first half hot on `hot`, second half hot elsewhere.
			edges := skewedStream(600, int64(hot)+10, hot)
			other := (hot + 1) % 3
			for i, e := range skewedStream(600, int64(hot)+20, other) {
				e.Time = Timestamp(600 + i + 1)
				edges = append(edges, e)
			}

			plain := runPlain(t, q, 90, edges)

			adapt := map[string]bool{}
			a, err := Open(Config{
				Query:    q,
				Window:   90,
				Adaptive: &Adaptivity{ReoptimizeEvery: 50, MinGain: 1.1},
				OnMatch:  func(_ string, m *Match) { adapt[matchKey(m)] = true },
			})
			if err != nil {
				t.Fatal(err)
			}
			feedEach(t, a, edges)
			a.Close()

			if len(plain) == 0 {
				t.Fatal("no matches; stream too sparse to be meaningful")
			}
			if len(adapt) != len(plain) {
				t.Fatalf("adaptive found %d distinct matches, plain %d", len(adapt), len(plain))
			}
			for k := range plain {
				if !adapt[k] {
					t.Fatalf("adaptive missed %s", k)
				}
			}
			if got := a.Stats().Matches; got != int64(len(plain)) {
				t.Fatalf("adaptive Matches %d, want %d", got, len(plain))
			}
		})
	}
}

// TestAdaptiveReordersUnderDrift: when the dominant subquery changes,
// the reoptimizer must rebuild and move the dominant subquery later in
// the join order (small-first ordering).
func TestAdaptiveReordersUnderDrift(t *testing.T) {
	q := starQuery(t)
	a, err := Open(Config{
		Query:    q,
		Window:   200,
		Adaptive: &Adaptivity{ReoptimizeEvery: 100, MinGain: 1.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if k := a.Stats().K; k != 3 {
		t.Fatalf("k = %d, want 3 (test assumes 3 subqueries)", k)
	}

	// Phase 1: kind 0 floods. Phase 2: kind 2 floods.
	edges := skewedStream(1000, 30, 0)
	for i, e := range skewedStream(1000, 31, 2) {
		e.Time = Timestamp(1000 + i + 1)
		edges = append(edges, e)
	}
	var orderAfterPhase1 []uint64
	for i, e := range edges {
		if _, err := a.Feed(e); err != nil {
			t.Fatal(err)
		}
		if i == 999 {
			orderAfterPhase1 = joinOrder(a)
		}
	}
	orderAfterPhase2 := joinOrder(a)
	a.Close()

	if a.Stats().Reoptimizations == 0 {
		t.Fatal("no reoptimization under heavy drift")
	}
	same := len(orderAfterPhase1) == len(orderAfterPhase2)
	if same {
		for i := range orderAfterPhase1 {
			if orderAfterPhase1[i] != orderAfterPhase2[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("join order did not change across drift: %v", orderAfterPhase2)
	}
}

// TestOrderByCostPrefersSmallFirst checks the ordering primitive
// directly: with wildly different cardinalities, the most expensive
// subquery lands last.
func TestOrderByCostPrefersSmallFirst(t *testing.T) {
	q := starQuery(t)
	dec := Decompose(q)
	if dec.K() != 3 {
		t.Fatalf("k = %d, want 3", dec.K())
	}
	// Make subquery containing edge 0 hugely popular.
	card := func(s *query.TCSubquery) float64 {
		if s.Contains(0) {
			return 1e6
		}
		return 2
	}
	best := query.OrderByCost(q, dec.Subqueries, card)
	if !best.CoversExactly(q) {
		t.Fatal("ordered decomposition no longer covers the query")
	}
	last := best.Subqueries[len(best.Subqueries)-1]
	if !last.Contains(0) {
		t.Fatalf("hot subquery not last: order %v", best.Subqueries)
	}
	if query.EstimateOrderCost(best, card) > query.EstimateOrderCost(dec, card) {
		t.Fatal("OrderByCost produced a worse order than the static one")
	}
}

// BenchmarkAdaptiveVsStatic is the ablation for the adaptive design:
// on a drifting stream, throughput of the static joint-number order vs
// the adaptive reoptimizer.
func BenchmarkAdaptiveVsStatic(b *testing.B) {
	q := starQuery(b)
	mkEdges := func(n int) []Edge {
		edges := skewedStream(n/2, 40, 0)
		for i, e := range skewedStream(n-n/2, 41, 2) {
			e.Time = Timestamp(n/2 + i + 1)
			edges = append(edges, e)
		}
		return edges
	}
	b.Run("static", func(b *testing.B) {
		edges := mkEdges(4096)
		s, err := Open(Config{Query: q, Window: 300})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := edges[i%len(edges)]
			e.Time = Timestamp(i + 1)
			if _, err := s.Feed(e); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		edges := mkEdges(4096)
		a, err := Open(Config{
			Query:    q,
			Window:   300,
			Adaptive: &Adaptivity{ReoptimizeEvery: 512, MinGain: 1.5},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := edges[i%len(edges)]
			e.Time = Timestamp(i + 1)
			if _, err := a.Feed(e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package timingsubg_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"timingsubg"
)

// fleetQuery builds a 2-edge path query x→y→z with e1 ≺ e2.
func fleetQuery(t testing.TB, x, y, z timingsubg.Label) *timingsubg.Query {
	t.Helper()
	b := timingsubg.NewQueryBuilder()
	vx, vy, vz := b.AddVertex(x), b.AddVertex(y), b.AddVertex(z)
	e1 := b.AddEdge(vx, vy)
	e2 := b.AddEdge(vy, vz)
	b.Before(e1, e2)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// fleetStream generates a random stream over nl vertex labels with
// stable per-vertex labels.
func fleetStream(labels *timingsubg.Labels, nl, n int, seed int64) []timingsubg.Edge {
	rng := rand.New(rand.NewSource(seed))
	lab := make([]timingsubg.Label, nl)
	for i := range lab {
		lab[i] = labels.Intern(fmt.Sprintf("L%d", i))
	}
	labelOf := func(v timingsubg.VertexID) timingsubg.Label { return lab[int(v)%nl] }
	var out []timingsubg.Edge
	for i := 0; i < n; i++ {
		from := timingsubg.VertexID(rng.Intn(3 * nl))
		to := timingsubg.VertexID(rng.Intn(3 * nl))
		if from == to {
			to = (to + 1) % timingsubg.VertexID(3*nl)
		}
		out = append(out, timingsubg.Edge{
			From: from, To: to,
			FromLabel: labelOf(from), ToLabel: labelOf(to),
			Time: timingsubg.Timestamp(i + 1),
		})
	}
	return out
}

// TestRoutedEqualsUnrouted: routing is a pure dispatch optimization —
// per-query match counts must be identical to the naive fan-out on the
// same stream, for a fleet whose queries cover disjoint and overlapping
// label signatures.
func TestRoutedEqualsUnrouted(t *testing.T) {
	labels := timingsubg.NewLabels()
	const nl = 6
	var specs []timingsubg.QuerySpec
	lab := func(i int) timingsubg.Label { return labels.Intern(fmt.Sprintf("L%d", i)) }
	for i := 0; i < nl; i++ {
		specs = append(specs, timingsubg.QuerySpec{
			Name:    fmt.Sprintf("q%d", i),
			Query:   fleetQuery(t, lab(i), lab((i+1)%nl), lab((i+2)%nl)),
			Options: timingsubg.Options{Window: 40},
		})
	}
	edges := fleetStream(labels, nl, 800, 7)

	run := func(routed bool) map[string]int64 {
		ms, err := timingsubg.Open(timingsubg.Config{Queries: specs, Routed: routed})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			if _, err := ms.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
		ms.Close()
		counts := map[string]int64{}
		for name, qs := range ms.Stats().Queries {
			counts[name] = qs.Matches
		}
		return counts
	}

	plain := run(false)
	routed := run(true)
	var total int64
	for name, want := range plain {
		total += want
		if routed[name] != want {
			t.Fatalf("query %s: routed %d matches, unrouted %d", name, routed[name], want)
		}
	}
	if total == 0 {
		t.Fatal("fleet found no matches at all; test stream too sparse")
	}
}

// TestRoutedSkipsUninterested: with a fleet of disjoint single-label
// queries, routing must dispatch each edge to at most a few engines.
func TestRoutedSkipsUninterested(t *testing.T) {
	labels := timingsubg.NewLabels()
	const nl = 10
	var specs []timingsubg.QuerySpec
	lab := func(i int) timingsubg.Label { return labels.Intern(fmt.Sprintf("L%d", i)) }
	for i := 0; i < nl; i++ {
		specs = append(specs, timingsubg.QuerySpec{
			Name:    fmt.Sprintf("q%d", i),
			Query:   fleetQuery(t, lab(i), lab(i), lab(i)), // only L_i→L_i edges
			Options: timingsubg.Options{Window: 40},
		})
	}
	ms, err := timingsubg.Open(timingsubg.Config{Queries: specs, Routed: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range fleetStream(labels, nl, 500, 8) {
		if _, err := ms.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	ms.Close()
	// Each edge has one (from,to) label pair; at most one of the nl
	// disjoint queries is interested, so the routed fraction is <= 1/nl.
	if f := ms.Stats().RoutedFraction; f > 1.0/float64(nl)+1e-9 {
		t.Fatalf("routed fraction %.3f, want <= %.3f", f, 1.0/float64(nl))
	}
}

func TestRoutedFractionUnroutedIsOne(t *testing.T) {
	labels := timingsubg.NewLabels()
	specs := []timingsubg.QuerySpec{{
		Name:    "q",
		Query:   fleetQuery(t, labels.Intern("x"), labels.Intern("y"), labels.Intern("z")),
		Options: timingsubg.Options{Window: 10},
	}}
	ms, err := timingsubg.Open(timingsubg.Config{Queries: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if f := ms.Stats().RoutedFraction; f != 1 {
		t.Fatalf("unrouted fraction = %v", f)
	}
}

// BenchmarkMultiFanout compares naive fan-out with routed dispatch over
// a 50-query fleet where most queries ignore most edges — the ablation
// for the router design choice.
func BenchmarkMultiFanout(b *testing.B) {
	for _, routed := range []bool{false, true} {
		name := "naive"
		if routed {
			name = "routed"
		}
		b.Run(name, func(b *testing.B) {
			labels := timingsubg.NewLabels()
			const nl = 50
			lab := func(i int) timingsubg.Label { return labels.Intern(fmt.Sprintf("L%d", i)) }
			var specs []timingsubg.QuerySpec
			for i := 0; i < nl; i++ {
				specs = append(specs, timingsubg.QuerySpec{
					Name:    fmt.Sprintf("q%d", i),
					Query:   fleetQuery(b, lab(i), lab(i), lab(i)),
					Options: timingsubg.Options{Window: 100},
				})
			}
			ms, err := timingsubg.Open(timingsubg.Config{Queries: specs, Routed: routed})
			if err != nil {
				b.Fatal(err)
			}
			edges := fleetStream(labels, nl, 4096, 9)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := edges[i%len(edges)]
				e.Time = timingsubg.Timestamp(i + 1)
				if _, err := ms.Feed(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRoutedCountWindowRejected: count windows are defined over the
// edges fed to an engine, so routing (which skips feeds) would change
// their semantics; Open must reject the combination, while the
// unrouted fan-out still accepts it.
func TestRoutedCountWindowRejected(t *testing.T) {
	labels := timingsubg.NewLabels()
	specs := []timingsubg.QuerySpec{{
		Name:    "q",
		Query:   fleetQuery(t, labels.Intern("x"), labels.Intern("y"), labels.Intern("z")),
		Options: timingsubg.Options{CountWindow: 50},
	}}
	if _, err := timingsubg.Open(timingsubg.Config{Queries: specs, Routed: true}); !errors.Is(err, timingsubg.ErrBadOptions) {
		t.Fatalf("routed fleet accepted count windows: %v", err)
	}
	ms, err := timingsubg.Open(timingsubg.Config{Queries: specs})
	if err != nil {
		t.Fatalf("unrouted fan-out rejected count windows: %v", err)
	}
	ms.Close()
}

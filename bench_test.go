// Benchmarks regenerating the paper's evaluation (Section VII), one
// Benchmark per figure. Each sub-benchmark measures one cell of the
// figure (dataset × method at a representative setting); the full sweeps
// with every window/query size are produced by cmd/experiments, which
// prints the same rows/series the paper plots. EXPERIMENTS.md records
// the measured shapes.
package timingsubg

import (
	"fmt"
	"math/rand"
	"testing"

	"timingsubg/internal/bench"
	"timingsubg/internal/datagen"
	"timingsubg/internal/graph"
	"timingsubg/internal/query"
	"timingsubg/internal/querygen"
)

// benchStream materializes a dataset stream and a query for benchmarks.
func benchStream(b *testing.B, ds datagen.Dataset, n, qsize int, kind querygen.OrderKind) ([]graph.Edge, *query.Query) {
	b.Helper()
	labels := graph.NewLabels()
	gen := datagen.New(ds, labels, datagen.Config{Vertices: 300, Seed: 42})
	edges := gen.Take(n)
	// Query seeds are vetted per dataset: random-walk queries over the
	// SocialStream's hub-heavy regions can be combinatorially explosive
	// (tens of millions of matches within a few thousand edges — the
	// benchmark binary gets OOM-killed as b.N grows), which measures the
	// workload's degeneracy rather than the engines. Seed 13 keeps the
	// SocialStream query in the selectivity regime the paper reports;
	// cmd/experiments sweeps many queries per setting with run budgets
	// and covers the heavy tail there instead.
	seed := int64(7)
	if ds == datagen.SocialStream {
		seed = 13
	}
	q, _, err := querygen.Generate(edges[:n/3], querygen.Config{Size: qsize, Order: kind, Seed: seed})
	if err != nil {
		b.Skipf("query generation: %v", err)
	}
	return edges, q
}

// driveN feeds exactly n edges from a fresh generator through the
// matcher and returns the match count.
func driveN(b *testing.B, m bench.Matcher, ds datagen.Dataset, n int, window graph.Timestamp) {
	b.Helper()
	labels := graph.NewLabels()
	gen := datagen.New(ds, labels, datagen.Config{Vertices: 300, Seed: 42})
	st := graph.NewStream(window)
	for i := 0; i < n; i++ {
		stored, expired, err := st.Push(gen.Next())
		if err != nil {
			b.Fatal(err)
		}
		m.Process(stored, expired)
	}
}

// BenchmarkFig15 — throughput per method at the default window (the
// window-size sweep is cmd/experiments -fig 15). ns/op is per stream
// edge, so throughput = 1e9/ns-op edges/sec.
func BenchmarkFig15(b *testing.B) {
	const window = 3000
	for _, ds := range datagen.Datasets() {
		_, q := benchStream(b, ds, 3000, 6, querygen.RandomOrder)
		for _, m := range bench.Methods() {
			b.Run(fmt.Sprintf("%s/%s", ds, m), func(b *testing.B) {
				matcher := bench.NewMatcher(m, q)
				b.ResetTimer()
				driveN(b, matcher, ds, b.N, window)
			})
		}
	}
}

// BenchmarkFig16 — throughput per method across query sizes on one
// dataset (full sweep: cmd/experiments -fig 16).
func BenchmarkFig16(b *testing.B) {
	const window = 3000
	ds := datagen.WikiTalk
	for _, size := range []int{6, 12, 18} {
		_, q := benchStream(b, ds, 3000, size, querygen.RandomOrder)
		for _, m := range bench.Methods() {
			b.Run(fmt.Sprintf("size%d/%s", size, m), func(b *testing.B) {
				matcher := bench.NewMatcher(m, q)
				b.ResetTimer()
				driveN(b, matcher, ds, b.N, window)
			})
		}
	}
}

// BenchmarkFig17 — average space per method at the default window,
// reported as the bytes metric (full sweep: cmd/experiments -fig 17).
func BenchmarkFig17(b *testing.B) {
	const window, streamLen = 2000, 3000
	for _, ds := range datagen.Datasets() {
		edges, q := benchStream(b, ds, streamLen, 6, querygen.RandomOrder)
		for _, m := range bench.Methods() {
			b.Run(fmt.Sprintf("%s/%s", ds, m), func(b *testing.B) {
				var space int64
				for i := 0; i < b.N; i++ {
					r := bench.Run(bench.NewMatcher(m, q), edges, window)
					space = r.AvgSpace
				}
				b.ReportMetric(float64(space), "avg-bytes")
			})
		}
	}
}

// BenchmarkFig18 — space across query sizes (full sweep: -fig 18).
func BenchmarkFig18(b *testing.B) {
	const window, streamLen = 2000, 3000
	ds := datagen.SocialStream
	for _, size := range []int{6, 12, 18} {
		edges, q := benchStream(b, ds, streamLen, size, querygen.RandomOrder)
		for _, m := range bench.Methods() {
			b.Run(fmt.Sprintf("size%d/%s", size, m), func(b *testing.B) {
				var space int64
				for i := 0; i < b.N; i++ {
					r := bench.Run(bench.NewMatcher(m, q), edges, window)
					space = r.AvgSpace
				}
				b.ReportMetric(float64(space), "avg-bytes")
			})
		}
	}
}

// BenchmarkFig21 — the optimization ablation: cost-model decomposition +
// joint-number join order (Timing) vs randomized variants (full tables:
// -fig 21).
func BenchmarkFig21(b *testing.B) {
	const window, streamLen = 2000, 3000
	ds := datagen.WikiTalk
	edges, q := benchStream(b, ds, streamLen, 6, querygen.RandomOrder)
	variants := []struct {
		name string
		mk   func() *query.Decomposition
	}{
		{"Timing", func() *query.Decomposition { return query.Decompose(q) }},
		{"Timing-RJ", func() *query.Decomposition { return query.DecomposeOrdered(q, rand.New(rand.NewSource(1))) }},
		{"Timing-RD", func() *query.Decomposition { return query.DecomposeRandom(q, rand.New(rand.NewSource(2)), nil) }},
		{"Timing-RDJ", func() *query.Decomposition {
			r := rand.New(rand.NewSource(3))
			return query.DecomposeRandom(q, r, r)
		}},
	}
	for _, v := range variants {
		name, mk := v.name, v.mk
		b.Run(name, func(b *testing.B) {
			dec := mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bench.Run(bench.NewTimingMatcher(q, dec), edges, window)
			}
		})
	}
}

// BenchmarkFig23 — throughput over decomposition size k (full sweep:
// -fig 23/24; space is reported alongside as a metric, covering Fig 24).
func BenchmarkFig23(b *testing.B) {
	const window, streamLen = 2000, 2500
	ds := datagen.WikiTalk
	labels := graph.NewLabels()
	gen := datagen.New(ds, labels, datagen.Config{Vertices: 300, Seed: 42})
	edges := gen.Take(streamLen)
	for _, k := range []int{1, 3, 6} {
		q, _, err := querygen.GenerateWithK(edges[:1200], 6, k, 11)
		if err != nil {
			b.Logf("k=%d: %v", k, err)
			continue
		}
		b.Run(fmt.Sprintf("k%d/Timing", k), func(b *testing.B) {
			var space int64
			for i := 0; i < b.N; i++ {
				r := bench.Run(bench.NewMatcher(bench.Timing, q), edges, window)
				space = r.AvgSpace
			}
			b.ReportMetric(float64(space), "avg-bytes")
		})
	}
}

// BenchmarkFig25 — selectivity: the answer count of the generated query
// sets (full tables: -fig 25).
func BenchmarkFig25(b *testing.B) {
	const window, streamLen = 2000, 3000
	for _, ds := range datagen.Datasets() {
		edges, q := benchStream(b, ds, streamLen, 6, querygen.RandomOrder)
		b.Run(ds.String(), func(b *testing.B) {
			var matches int64
			for i := 0; i < b.N; i++ {
				r := bench.Run(bench.NewMatcher(bench.Timing, q), edges, window)
				matches = r.Matches
			}
			b.ReportMetric(float64(matches), "answers")
		})
	}
}

// BenchmarkCoreInsert isolates the per-edge insert path of the Timing
// engine (microbenchmark backing the Theorem 3 discussion).
func BenchmarkCoreInsert(b *testing.B) {
	ds := datagen.NetworkFlow
	_, q := benchStream(b, ds, 2000, 6, querygen.RandomOrder)
	matcher := bench.NewMatcher(bench.Timing, q)
	b.ResetTimer()
	driveN(b, matcher, ds, b.N, 2000)
}

package timingsubg

import (
	"fmt"
	"testing"
)

// Benchmarks comparing per-edge Feed against the FeedBatch fast path on
// a 1e5-edge stream — the amortization the batch path buys: one
// closed-check and maintenance tick per batch, one WAL write (and at
// most one fsync) instead of one per edge, one fleet lock acquisition
// instead of one per edge.

const benchStreamLen = 100_000

func benchEngine(b *testing.B, cfg Config) (Engine, []Edge) {
	b.Helper()
	labels := NewLabels()
	q := persistTestQuery(b, labels)
	edges := persistTestStream(labels, benchStreamLen, 7)
	cfg.Query = q
	if cfg.Window == 0 {
		cfg.Window = 50
	}
	eng, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return eng, edges
}

func feedBench(b *testing.B, mk func(b *testing.B) Engine, edges []Edge, batch int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := mk(b)
		b.StartTimer()
		if batch <= 0 {
			for _, e := range edges {
				if _, err := eng.Feed(e); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			for off := 0; off < len(edges); off += batch {
				end := off + batch
				if end > len(edges) {
					end = len(edges)
				}
				if _, err := eng.FeedBatch(edges[off:end]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		eng.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkFeed(b *testing.B) {
	_, edges := benchEngine(b, Config{})
	feedBench(b, func(b *testing.B) Engine {
		eng, _ := benchEngine(b, Config{})
		return eng
	}, edges, 0)
}

func BenchmarkFeedBatch(b *testing.B) {
	_, edges := benchEngine(b, Config{})
	feedBench(b, func(b *testing.B) Engine {
		eng, _ := benchEngine(b, Config{})
		return eng
	}, edges, 1024)
}

func BenchmarkDurableFeed(b *testing.B) {
	_, edges := benchEngine(b, Config{})
	feedBench(b, func(b *testing.B) Engine {
		eng, _ := benchEngine(b, Config{Durable: &Durability{Dir: b.TempDir(), SyncEvery: 64}})
		return eng
	}, edges, 0)
}

func BenchmarkDurableFeedBatch(b *testing.B) {
	_, edges := benchEngine(b, Config{})
	feedBench(b, func(b *testing.B) Engine {
		eng, _ := benchEngine(b, Config{Durable: &Durability{Dir: b.TempDir(), SyncEvery: 64}})
		return eng
	}, edges, 1024)
}

func benchFleet(b *testing.B) Engine {
	b.Helper()
	labels := NewLabels()
	q := persistTestQuery(b, labels)
	specs := make([]QuerySpec, 0, 4)
	for _, name := range []string{"q1", "q2", "q3", "q4"} {
		specs = append(specs, QuerySpec{Name: name, Query: q})
	}
	fl, err := OpenFleet(Config{Queries: specs, Window: 50})
	if err != nil {
		b.Fatal(err)
	}
	return fl
}

func BenchmarkFleetFeed(b *testing.B) {
	labels := NewLabels()
	persistTestQuery(b, labels)
	edges := persistTestStream(labels, benchStreamLen, 7)
	feedBench(b, func(b *testing.B) Engine { return benchFleet(b) }, edges, 0)
}

func BenchmarkFleetFeedBatch(b *testing.B) {
	labels := NewLabels()
	persistTestQuery(b, labels)
	edges := persistTestStream(labels, benchStreamLen, 7)
	feedBench(b, func(b *testing.B) Engine { return benchFleet(b) }, edges, 1024)
}

// BenchmarkFleetFan is the fleet-scaling regression harness: 64
// standing queries over one stream, broadcast and routed, with the
// fan-out evaluated sequentially (workers-1) and sharded (workers-2/4).
// The workers-4/workers-1 ratio on a multi-core runner is the headline
// number the sharded fleet exists for; served, tsbench's
// fleetpool.serial_over_sharded on wiki_fleet tracks it.
func BenchmarkFleetFan(b *testing.B) {
	const fanQueries = 64
	const fanStreamLen = 20_000
	labels := NewLabels()
	q := persistTestQuery(b, labels)
	edges := persistTestStream(labels, fanStreamLen, 7)
	specs := make([]QuerySpec, 0, fanQueries)
	for i := 0; i < fanQueries; i++ {
		specs = append(specs, QuerySpec{Name: fmt.Sprintf("q%02d", i), Query: q})
	}
	for _, routed := range []bool{false, true} {
		mode := "broadcast"
		if routed {
			mode = "routed"
		}
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers-%d", mode, workers), func(b *testing.B) {
				feedBench(b, func(b *testing.B) Engine {
					fl, err := OpenFleet(Config{
						Queries:      specs,
						Window:       50,
						Routed:       routed,
						FleetWorkers: workers,
					})
					if err != nil {
						b.Fatal(err)
					}
					return fl
				}, edges, 1024)
			})
		}
	}
}

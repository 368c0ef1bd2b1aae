package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timingsubg/internal/graph"
)

// BenchmarkAppend measures the no-fsync append path — the per-edge
// overhead Durability.Dir adds to an engine in its default
// configuration.
func BenchmarkAppend(b *testing.B) {
	l, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	e := graph.Edge{From: 12345, To: 67890, FromLabel: 3, ToLabel: 7, EdgeLabel: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Time = graph.Timestamp(i + 1)
		if _, err := appendOne(l, e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendSynced measures per-record fsync durability (the
// SyncEvery=1 configuration) for contrast.
func BenchmarkAppendSynced(b *testing.B) {
	l, err := Open(b.TempDir(), Options{SyncEvery: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	e := graph.Edge{From: 12345, To: 67890, FromLabel: 3, ToLabel: 7, EdgeLabel: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Time = graph.Timestamp(i + 1)
		if _, err := appendOne(l, e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupCommit contrasts the two ways to make every batch
// durable before acking it, under 1/4/16 concurrent feeders against a
// simulated 1ms-fsync disk (tmpfs fsyncs are too fast to expose the
// difference):
//
//   - perbatch: the pre-group-commit discipline — feeders serialize on
//     an external mutex and each batch pays its own fsync, so
//     fsyncs/batch is pinned at 1.0 and fsync latency is paid N times.
//   - group: feeders append concurrently with SyncEvery=1; committers
//     that pile up behind the in-flight fsync share the next one, so
//     fsyncs/batch drops below 1.0 as feeders grow.
//
// One benchmark iteration = one 16-edge batch made durable.
func BenchmarkGroupCommit(b *testing.B) {
	const batchLen = 16
	for _, mode := range []string{"perbatch", "group"} {
		for _, feeders := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/feeders-%d", mode, feeders), func(b *testing.B) {
				opts := Options{OpenFile: slowOpen(time.Millisecond)}
				if mode == "group" {
					opts.SyncEvery = 1
				}
				l, err := Open(b.TempDir(), opts)
				if err != nil {
					b.Fatal(err)
				}
				var serial sync.Mutex
				var next atomic.Int64
				var wg sync.WaitGroup
				errs := make(chan error, feeders)
				b.ResetTimer()
				for g := 0; g < feeders; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						batch := make([]graph.Edge, batchLen)
						for {
							i := next.Add(1)
							if i > int64(b.N) {
								return
							}
							for j := range batch {
								batch[j] = testEdge(i*batchLen + int64(j))
							}
							var err error
							if mode == "perbatch" {
								serial.Lock()
								if _, _, err = l.AppendBatch(batch); err == nil {
									err = l.Sync()
								}
								serial.Unlock()
							} else {
								_, _, err = l.AppendBatch(batch)
							}
							if err != nil {
								errs <- err
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
				b.ReportMetric(float64(l.Syncs())/float64(b.N), "fsyncs/batch")
				b.ReportMetric(float64(b.N*batchLen)/b.Elapsed().Seconds(), "edges/s")
				if err := l.Close(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkReplay measures recovery replay speed over a 100k-record log.
func BenchmarkReplay(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := graph.Edge{From: 1, To: 2, FromLabel: 3, ToLabel: 4}
	const n = 100_000
	for i := 0; i < n; i++ {
		e.Time = graph.Timestamp(i + 1)
		if _, err := appendOne(l, e); err != nil {
			b.Fatal(err)
		}
	}
	l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt := 0
		if _, err := Replay(dir, 0, func(int64, graph.Edge) error { cnt++; return nil }); err != nil {
			b.Fatal(err)
		}
		if cnt != n {
			b.Fatalf("replayed %d, want %d", cnt, n)
		}
	}
}

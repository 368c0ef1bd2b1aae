package timingsubg

import (
	"testing"
)

// Ablation benches for the post-paper extensions: what durability and
// count windows cost relative to the plain in-memory engine on the same
// stream and query.

func extBenchStream(b *testing.B, n int) ([]Edge, *Query) {
	b.Helper()
	labels := NewLabels()
	q := persistTestQuery(b, labels)
	return persistTestStream(labels, n, 51), q
}

// BenchmarkFeedPlain is the baseline: in-memory engine, time window.
func BenchmarkFeedPlain(b *testing.B) {
	edges, q := extBenchStream(b, 4096)
	s, err := Open(Config{Query: q, Window: 50})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		e.Time = Timestamp(i + 1)
		if _, err := s.Feed(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeedCountWindow swaps in the count-based window.
func BenchmarkFeedCountWindow(b *testing.B) {
	edges, q := extBenchStream(b, 4096)
	s, err := Open(Config{Query: q, CountWindow: 50})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		e.Time = Timestamp(i + 1)
		if _, err := s.Feed(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeedDurable adds the WAL (no fsync) and periodic
// checkpointing — the full durability tax per edge.
func BenchmarkFeedDurable(b *testing.B) {
	edges, q := extBenchStream(b, 4096)
	ps := openDurable(b, q, 50, Durability{Dir: b.TempDir(), CheckpointEvery: 4096}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		e.Time = Timestamp(i + 1)
		if _, err := ps.Feed(e); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := ps.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCheckpoint measures one forced checkpoint of a populated
// window (write + GC + WAL truncation).
func BenchmarkCheckpoint(b *testing.B) {
	edges, q := extBenchStream(b, 4096)
	// CheckpointEvery 1<<30: manual checkpoints only.
	ps := openDurable(b, q, 500, Durability{Dir: b.TempDir(), CheckpointEvery: 1 << 30}, nil)
	for i, e := range edges {
		e.Time = Timestamp(i + 1)
		if _, err := ps.Feed(e); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ps.fl.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := ps.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecovery measures a durable Open against a directory with a
// populated checkpoint — the restart cost a deployment pays.
func BenchmarkRecovery(b *testing.B) {
	edges, q := extBenchStream(b, 4096)
	dir := b.TempDir()
	ps := openDurable(b, q, 500, Durability{Dir: dir}, nil)
	for i, e := range edges {
		e.Time = Timestamp(i + 1)
		if _, err := ps.Feed(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := ps.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := openDurable(b, q, 500, Durability{Dir: dir}, nil)
		b.StopTimer()
		// Close writes a checkpoint; keep it out of the recovery timing.
		if err := ps.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

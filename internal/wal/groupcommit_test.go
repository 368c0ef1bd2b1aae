package wal

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timingsubg/internal/graph"
)

// slowFile wraps a real segment file with a sleeping Sync, making fsync
// latency dominate the way a real disk does: while one leader sleeps,
// concurrent appenders pile up behind it and must share the next fsync
// for the coalescing assertions below to hold deterministically (tmpfs
// fsyncs are too fast to force overlap).
type slowFile struct {
	f     File
	delay time.Duration
}

func (s *slowFile) Write(p []byte) (int, error)        { return s.f.Write(p) }
func (s *slowFile) Seek(o int64, w int) (int64, error) { return s.f.Seek(o, w) }
func (s *slowFile) Close() error                       { return s.f.Close() }
func (s *slowFile) Truncate(n int64) error             { return s.f.Truncate(n) }
func (s *slowFile) Sync() error                        { time.Sleep(s.delay); return s.f.Sync() }

func slowOpen(delay time.Duration) OpenFileFunc {
	return func(name string, flag int, perm os.FileMode) (File, error) {
		f, err := os.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return &slowFile{f: f, delay: delay}, nil
	}
}

// TestGroupCommitCoalesces: with per-record durability (SyncEvery: 1)
// and concurrent appenders against a slow disk, committers must share
// fsyncs — strictly fewer fsyncs than records — while every record is
// durable on return.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEvery: 1, OpenFile: slowOpen(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	const (
		feeders = 8
		perG    = 25
		total   = feeders * perG
	)
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make(chan error, feeders)
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := appendOne(l, testEdge(next.Add(1))); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := l.Seq(); got != total {
		t.Fatalf("seq = %d, want %d", got, total)
	}
	if d := l.DurableLSN(); d != total {
		t.Fatalf("durable = %d, want %d (every append committed)", d, total)
	}
	syncs := l.Syncs()
	if syncs >= total {
		t.Fatalf("no coalescing: %d fsyncs for %d records", syncs, total)
	}
	t.Logf("group commit: %d records, %d fsyncs (%.1f records/fsync)",
		total, syncs, float64(total)/float64(syncs))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir, 0); len(got) != total {
		t.Fatalf("replayed %d, want %d", len(got), total)
	}
}

// TestSyncIntervalBackground: with cadence sync off, the background
// syncer alone must advance the durable horizon to the tail within a
// few intervals, without any feeder blocking on a commit.
func TestSyncIntervalBackground(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	deadline := time.Now().Add(5 * time.Second)
	for l.DurableLSN() != 10 {
		if time.Now().After(deadline) {
			t.Fatalf("background sync never caught up: durable %d, seq 10", l.DurableLSN())
		}
		time.Sleep(time.Millisecond)
	}
	if l.Syncs() < 1 {
		t.Fatal("no background fsync recorded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Close after the syncer is stopped must still be clean and final.
	if got := replayAll(t, dir, 0); len(got) != 10 {
		t.Fatalf("replayed %d, want 10", len(got))
	}
}

// TestConcurrentAppendersRace exercises every public mutator and reader
// concurrently (run under -race): appends and batch appends across
// segment rotations, explicit syncs, truncation, and stat reads.
func TestConcurrentAppendersRace(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, SyncEvery: 4, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const feeders = 4
	var wg sync.WaitGroup
	var produced atomic.Int64
	errs := make(chan error, feeders+2)
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]graph.Edge, 7)
			for i := 0; i < 40; i++ {
				if g%2 == 0 {
					if _, err := appendOne(l, testEdge(int64(g*1000+i))); err != nil {
						errs <- err
						return
					}
					produced.Add(1)
				} else {
					for j := range batch {
						batch[j] = testEdge(int64(g*1000 + i*10 + j))
					}
					if _, n, err := l.AppendBatch(batch); err != nil {
						errs <- err
						return
					} else {
						produced.Add(int64(n))
					}
				}
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := l.Sync(); err != nil {
				errs <- err
				return
			}
			_ = l.DurableLSN()
			_ = l.Seq()
			_ = l.Syncs()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			keep := l.Seq() / 2
			l.SetCheckpointLSN(keep)
			if err := l.TruncateFront(keep); err != nil {
				errs <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := produced.Load()
	if got := l.Seq(); got != want {
		t.Fatalf("seq = %d, want %d", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The surviving suffix replays without gaps from the retained horizon.
	first, err := FirstSeq(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := int64(0)
	end, err := Replay(dir, first, func(seq int64, e graph.Edge) error {
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if end != want {
		t.Fatalf("replay ended at %d, want %d", end, want)
	}
	if seen != want-first {
		t.Fatalf("replayed %d records from %d, want %d", seen, first, want-first)
	}
}

package wal

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"timingsubg/internal/graph"
)

// Fault injection for the append path: a filesystem shim that tears a
// write mid-buffer (the on-disk shape of a crash or I/O error in the
// middle of an AppendBatch) and the recovery assertions that follow —
// the log's cursor reflects exactly the acknowledged records, reopen
// truncates the torn tail to the last complete record, and replay
// yields every surviving record intact.

// errInjectedWrite marks a shim-induced failure.
var errInjectedWrite = errors.New("injected torn write")

// tornFile wraps a real segment file and enforces a shared byte budget:
// the write that would exceed it lands only partially (a torn write)
// and fails; every later write fails outright.
type tornFile struct {
	f      File
	budget *int64
}

func tornOpen(budget *int64) OpenFileFunc {
	return func(name string, flag int, perm os.FileMode) (File, error) {
		f, err := os.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return &tornFile{f: f, budget: budget}, nil
	}
}

func (t *tornFile) Write(p []byte) (int, error) {
	if *t.budget <= 0 {
		return 0, errInjectedWrite
	}
	if int64(len(p)) > *t.budget {
		n, _ := t.f.Write(p[:*t.budget])
		*t.budget = 0
		return n, errInjectedWrite
	}
	*t.budget -= int64(len(p))
	return t.f.Write(p)
}

func (t *tornFile) Sync() error                               { return t.f.Sync() }
func (t *tornFile) Close() error                              { return t.f.Close() }
func (t *tornFile) Truncate(size int64) error                 { return t.f.Truncate(size) }
func (t *tornFile) Seek(off int64, whence int) (int64, error) { return t.f.Seek(off, whence) }

func TestAppendBatchTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	budget := int64(600) // segment magic + a few dozen records, then tear
	l, err := Open(dir, Options{SyncEvery: 1, OpenFile: tornOpen(&budget)})
	if err != nil {
		t.Fatal(err)
	}

	var acked int64
	var failedAt int64 = -1
	for b := 0; b < 64 && failedAt < 0; b++ {
		batch := make([]graph.Edge, 16)
		for i := range batch {
			batch[i] = testEdge(acked + int64(len(batch)<<8) + int64(i))
			batch[i].Time = graph.Timestamp(acked) + graph.Timestamp(i) + 1
		}
		_, n, err := l.AppendBatch(batch)
		acked += int64(n)
		if err != nil {
			if !errors.Is(err, errInjectedWrite) {
				t.Fatalf("AppendBatch failed with %v, want injected fault", err)
			}
			if n == len(batch) {
				t.Fatal("injected fault reported but whole batch acknowledged")
			}
			failedAt = acked
		}
	}
	if failedAt < 0 {
		t.Fatal("budget never exhausted — fault not exercised")
	}
	// The cursor must reflect exactly the acknowledged records: the
	// caller keeps engine state aligned with it.
	if l.Seq() != acked {
		t.Fatalf("post-fault Seq = %d, want %d acknowledged", l.Seq(), acked)
	}

	// Crash (no Close). Reopen through the real filesystem: the torn
	// tail is truncated to the last complete record.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer l2.Close()
	// Every acknowledged record is complete on disk (SyncEvery: 1 made
	// each acked batch durable); the torn chunk may additionally have
	// landed a prefix of complete records that were never acknowledged.
	if l2.Seq() < acked {
		t.Fatalf("recovered Seq = %d, lost acknowledged records (acked %d)", l2.Seq(), acked)
	}
	var replayed int64
	end, err := Replay(dir, 0, func(seq int64, e graph.Edge) error {
		if seq != replayed {
			t.Fatalf("replay gap: got seq %d, want %d", seq, replayed)
		}
		replayed++
		return nil
	})
	if err != nil {
		t.Fatalf("replay after torn write: %v", err)
	}
	if end != l2.Seq() || replayed != l2.Seq() {
		t.Fatalf("replay yielded %d records to %d, log at %d", replayed, end, l2.Seq())
	}

	// The reopened log keeps working: appends continue at the recovered
	// cursor and survive another replay.
	if seq, err := appendOne(l2, testEdge(9999)); err != nil || seq != replayed {
		t.Fatalf("append after recovery = (%d, %v), want seq %d", seq, err, replayed)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	if end, err := Replay(dir, 0, func(int64, graph.Edge) error { return nil }); err != nil || end != replayed+1 {
		t.Fatalf("replay after post-recovery append = (%d, %v)", end, err)
	}
}

// TestAppendAfterTornWriteSticky: once a write tears, the in-memory
// cursor no longer matches the file, so every later append, batch and
// sync must refuse with the original fault (not silently write after
// the torn bytes, which would read back as interior corruption) until
// a reopen rescans and truncates the tail.
func TestAppendAfterTornWriteSticky(t *testing.T) {
	dir := t.TempDir()
	budget := int64(120)
	l, err := Open(dir, Options{OpenFile: tornOpen(&budget)})
	if err != nil {
		t.Fatal(err)
	}
	var acked int64
	for i := 0; i < 64; i++ {
		if _, err := appendOne(l, testEdge(int64(i))); err != nil {
			if !errors.Is(err, errInjectedWrite) {
				t.Fatalf("fault surfaced as %v", err)
			}
			break
		}
		acked++
	}
	if acked == 64 {
		t.Fatal("budget never exhausted")
	}
	// Every write-path entry point is now closed, each still naming the
	// original fault, and none moves the cursor.
	if _, err := appendOne(l, testEdge(500)); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("Append after torn write: %v, want sticky injected fault", err)
	}
	if _, n, err := l.AppendBatch([]graph.Edge{testEdge(501), testEdge(502)}); !errors.Is(err, errInjectedWrite) || n != 0 {
		t.Fatalf("AppendBatch after torn write: n=%d err=%v, want sticky injected fault", n, err)
	}
	if err := l.Sync(); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("Sync after torn write: %v, want sticky injected fault", err)
	}
	if err := l.SkipTo(1000); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("SkipTo after torn write: %v, want sticky injected fault", err)
	}
	if l.Seq() != acked {
		t.Fatalf("failed ops moved the cursor: %d, want %d", l.Seq(), acked)
	}
	// Close is clean (nothing more to flush) and reopen fully recovers.
	if err := l.Close(); err != nil {
		t.Fatalf("close of failed log: %v", err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.Seq() < acked {
		t.Fatalf("recovered Seq %d < acked %d", l2.Seq(), acked)
	}
	appendN(t, l2, l2.Seq(), 5)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	var prev int64 = -1
	if _, err := Replay(dir, 0, func(seq int64, e graph.Edge) error {
		if seq != prev+1 {
			t.Fatalf("replay gap at %d after %d", seq, prev)
		}
		prev = seq
		return nil
	}); err != nil {
		t.Fatalf("replay after recovery: %v", err)
	}
}

// failSyncFile fails the first n fsyncs, then succeeds.
type failSyncFile struct {
	f     File
	fails *int
}

var errInjectedSync = errors.New("injected fsync failure")

func failSyncOpen(fails *int) OpenFileFunc {
	return func(name string, flag int, perm os.FileMode) (File, error) {
		f, err := os.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return &failSyncFile{f: f, fails: fails}, nil
	}
}

func (s *failSyncFile) Write(p []byte) (int, error) { return s.f.Write(p) }
func (s *failSyncFile) Seek(o int64, w int) (int64, error) {
	return s.f.Seek(o, w)
}
func (s *failSyncFile) Close() error           { return s.f.Close() }
func (s *failSyncFile) Truncate(n int64) error { return s.f.Truncate(n) }
func (s *failSyncFile) Sync() error {
	if *s.fails > 0 {
		*s.fails--
		return errInjectedSync
	}
	return s.f.Sync()
}

// TestFailedSyncKeepsDebt is the regression test for the
// cadence-debt-reset bug: a failed fsync must NOT clear the durability
// debt — the next append's cadence commit retries and, on success,
// covers the earlier records too.
func TestFailedSyncKeepsDebt(t *testing.T) {
	dir := t.TempDir()
	fails := 1
	l, err := Open(dir, Options{SyncEvery: 1, OpenFile: failSyncOpen(&fails)})
	if err != nil {
		t.Fatal(err)
	}
	// First append: the cadence fsync fails; the record is written but
	// not durable, and the failure is reported.
	if _, err := appendOne(l, testEdge(0)); !errors.Is(err, errInjectedSync) {
		t.Fatalf("append with failing fsync: %v, want injected failure", err)
	}
	if l.Seq() != 1 {
		t.Fatalf("seq = %d, want 1 (record landed)", l.Seq())
	}
	if d := l.DurableLSN(); d != 0 {
		t.Fatalf("durable = %d after failed fsync, want 0 (debt retained)", d)
	}
	// Second append: fsync now works and must cover BOTH records —
	// durability debt from the failed fsync was not forgotten.
	if _, err := appendOne(l, testEdge(1)); err != nil {
		t.Fatalf("append after fsync recovered: %v", err)
	}
	if d := l.DurableLSN(); d != 2 {
		t.Fatalf("durable = %d, want 2 (retried fsync covers the debt)", d)
	}
	// Explicit Sync with zero debt is a no-op, not another fsync.
	syncs := l.Syncs()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Syncs() != syncs {
		t.Fatal("debt-free Sync performed an fsync")
	}
	l.Close()
}

// TestTornWriteUnderConcurrentFeeders extends the torn-write fault
// suite to the group-commit path: concurrent appenders against a
// tearing disk, per-record durability. Every acknowledged append must
// survive reopen (writes are serialized, so an acked record implies
// all records below it landed), and the survivors replay gap-free.
func TestTornWriteUnderConcurrentFeeders(t *testing.T) {
	dir := t.TempDir()
	budget := int64(4096)
	l, err := Open(dir, Options{SyncEvery: 1, SegmentBytes: 1024, OpenFile: tornOpen(&budget)})
	if err != nil {
		t.Fatal(err)
	}
	const feeders = 4
	var wg sync.WaitGroup
	var maxAcked atomic.Int64
	maxAcked.Store(-1)
	var sawFault atomic.Bool
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seq, err := appendOne(l, testEdge(int64(g*1000+i)))
				if err != nil {
					if !errors.Is(err, errInjectedWrite) {
						t.Errorf("feeder %d: %v", g, err)
					}
					sawFault.Store(true)
					return
				}
				for {
					cur := maxAcked.Load()
					if seq <= cur || maxAcked.CompareAndSwap(cur, seq) {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if !sawFault.Load() {
		t.Fatal("budget never exhausted — fault not exercised")
	}
	acked := maxAcked.Load() + 1

	// Crash (no Close) and reopen on the real filesystem.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after concurrent torn write: %v", err)
	}
	defer l2.Close()
	if l2.Seq() < acked {
		t.Fatalf("recovered Seq = %d, lost acknowledged records (acked through %d)", l2.Seq(), acked)
	}
	var prev int64 = -1
	end, err := Replay(dir, 0, func(seq int64, e graph.Edge) error {
		if seq != prev+1 {
			t.Fatalf("replay gap at %d after %d", seq, prev)
		}
		prev = seq
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if end != l2.Seq() {
		t.Fatalf("replay ended at %d, log at %d", end, l2.Seq())
	}
}

// TestAppendTornWriteSingle is the per-record variant: a torn single
// Append must leave the cursor unmoved and the tail recoverable.
func TestAppendTornWriteSingle(t *testing.T) {
	dir := t.TempDir()
	budget := int64(64)
	l, err := Open(dir, Options{OpenFile: tornOpen(&budget)})
	if err != nil {
		t.Fatal(err)
	}
	var acked int64
	for i := 0; i < 64; i++ {
		if _, err := appendOne(l, testEdge(int64(i))); err != nil {
			if !errors.Is(err, errInjectedWrite) {
				t.Fatalf("Append failed with %v", err)
			}
			break
		}
		acked++
	}
	if acked == 64 {
		t.Fatal("budget never exhausted")
	}
	if l.Seq() != acked {
		t.Fatalf("Seq = %d, want %d", l.Seq(), acked)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.Seq() < acked {
		t.Fatalf("recovered Seq %d < acked %d", l2.Seq(), acked)
	}
}

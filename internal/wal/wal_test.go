package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"timingsubg/internal/graph"
)

// appendOne logs one record the way Engine.Feed does: as a batch of
// one.
func appendOne(l *Log, e graph.Edge) (int64, error) {
	seq, _, err := l.AppendBatch([]graph.Edge{e})
	return seq, err
}

func testEdge(i int64) graph.Edge {
	return graph.Edge{
		From:      graph.VertexID(i * 3),
		To:        graph.VertexID(i*3 + 1),
		FromLabel: graph.Label(i % 7),
		ToLabel:   graph.Label(i % 5),
		EdgeLabel: graph.Label(i % 3),
		Time:      graph.Timestamp(i + 1),
	}
}

func appendN(t *testing.T, l *Log, from, n int64) {
	t.Helper()
	for i := from; i < from+n; i++ {
		seq, err := appendOne(l, testEdge(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != i {
			t.Fatalf("append %d: got seq %d", i, seq)
		}
	}
}

func replayAll(t *testing.T, dir string, from int64) []graph.Edge {
	t.Helper()
	var out []graph.Edge
	if _, err := Replay(dir, from, func(seq int64, e graph.Edge) error {
		out = append(out, e)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 100)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir, 0)
	if len(got) != 100 {
		t.Fatalf("replayed %d records, want 100", len(got))
	}
	for i, e := range got {
		want := testEdge(int64(i))
		want.ID = graph.EdgeID(i)
		if e != want {
			t.Fatalf("record %d: got %+v want %+v", i, e, want)
		}
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 37)
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l2.Seq() != 37 {
		t.Fatalf("reopened seq = %d, want 37", l2.Seq())
	}
	appendN(t, l2, 37, 13)
	l2.Close()

	if got := replayAll(t, dir, 0); len(got) != 50 {
		t.Fatalf("replayed %d, want 50", len(got))
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 200)
	l.Close()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments at 128-byte rotation, got %d", len(segs))
	}
	if got := replayAll(t, dir, 0); len(got) != 200 {
		t.Fatalf("replayed %d, want 200", len(got))
	}
}

func TestReplayFrom(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 150)
	l.Close()

	for _, from := range []int64{0, 1, 73, 149, 150} {
		got := replayAll(t, dir, from)
		if int64(len(got)) != 150-from {
			t.Fatalf("replay from %d: got %d records, want %d", from, len(got), 150-from)
		}
		if len(got) > 0 && got[0].ID != graph.EdgeID(from) {
			t.Fatalf("replay from %d: first ID %d", from, got[0].ID)
		}
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 20)
	l.Close()

	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[len(segs)-1].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: chop a few bytes off the tail.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, dir, 0)
	if len(got) != 19 {
		t.Fatalf("after torn tail: replayed %d, want 19", len(got))
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	if l2.Seq() != 19 {
		t.Fatalf("reopened seq = %d, want 19", l2.Seq())
	}
	appendN(t, l2, 19, 5)
	l2.Close()
	if got := replayAll(t, dir, 0); len(got) != 24 {
		t.Fatalf("after repair+append: replayed %d, want 24", len(got))
	}
}

func TestCorruptTailByteStopsReplayCleanly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	l.Close()

	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].name)
	data, _ := os.ReadFile(path)
	data[len(data)-2] ^= 0xFF // flip a bit inside the last record's CRC
	os.WriteFile(path, data, 0o644)

	got := replayAll(t, dir, 0)
	if len(got) != 9 {
		t.Fatalf("replayed %d, want 9 (last record dropped)", len(got))
	}
}

func TestTruncateFront(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 300)

	if err := l.TruncateFront(200); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if segs[0].firstSeq > 200 {
		t.Fatalf("truncate removed records >= keep: first segment starts at %d", segs[0].firstSeq)
	}
	// Records >= 200 must all survive.
	var seen int
	if _, err := Replay(dir, 200, func(seq int64, e graph.Edge) error {
		if seq < 200 {
			t.Fatalf("replay from 200 yielded seq %d", seq)
		}
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 100 {
		t.Fatalf("records >= 200 after truncate: %d, want 100", seen)
	}
	l.Close()
}

func TestTruncateFrontNeverRemovesOpenSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.TruncateFront(10); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("open segment was removed: %d segments left", len(segs))
	}
	l.Close()
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := appendOne(l, testEdge(0)); err == nil {
		t.Fatal("append after close succeeded")
	}
}

func TestReplayEmptyDir(t *testing.T) {
	dir := t.TempDir()
	n, err := Replay(dir, 0, func(int64, graph.Edge) error { t.Fatal("callback on empty log"); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("empty replay returned next seq %d", n)
	}
}

func TestSyncEvery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)
	l.Close()
	if got := replayAll(t, dir, 0); len(got) != 5 {
		t.Fatalf("replayed %d, want 5", len(got))
	}
}

// TestReplayFromOnEmptyDir is the regression test for the empty-log
// skip-loop panic: replaying an empty directory with from > 0 (a
// checkpoint ahead of a lost log) must return (from, nil), not panic.
func TestReplayFromOnEmptyDir(t *testing.T) {
	for _, from := range []int64{1, 42, 1 << 30} {
		n, err := Replay(t.TempDir(), from, func(int64, graph.Edge) error {
			t.Fatal("callback on empty log")
			return nil
		})
		if err != nil {
			t.Fatalf("from=%d: %v", from, err)
		}
		if n != from {
			t.Fatalf("from=%d: returned next seq %d, want %d", from, n, from)
		}
	}
}

// TestSkipToThenTruncateFront covers the checkpoint-newer-than-lost-tail
// recovery path end to end: SkipTo fast-forwards the cursor, reclaims
// the stale segments below it, and leaves a log that appends and
// replays cleanly from the skip point.
func TestSkipToThenTruncateFront(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 100)
	l.Close()

	// Simulate: a checkpoint at 150 survived but the log tail past 100
	// did not (fsync was off). Recovery must continue at 150.
	l2, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.SkipTo(150); err != nil {
		t.Fatal(err)
	}
	if l2.Seq() != 150 {
		t.Fatalf("after SkipTo: seq %d, want 150", l2.Seq())
	}
	if first, _ := FirstSeq(dir); first != 150 {
		t.Fatalf("after SkipTo: FirstSeq %d, want 150 (stale segments reclaimed)", first)
	}
	if gate := l2.CheckpointLSN(); gate != 150 {
		t.Fatalf("after SkipTo: gate %d, want 150", gate)
	}
	appendN(t, l2, 150, 20)
	l2.Close()

	got := replayAll(t, dir, 150)
	if len(got) != 20 {
		t.Fatalf("replay from 150: %d records, want 20", len(got))
	}
	if got[0].ID != 150 {
		t.Fatalf("first replayed ID %d, want 150", got[0].ID)
	}
	// SkipTo is idempotent at or below the cursor.
	l3, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := l3.SkipTo(100); err != nil {
		t.Fatal(err)
	}
	if l3.Seq() != 170 {
		t.Fatalf("backward SkipTo moved the cursor: %d", l3.Seq())
	}
	l3.Close()
}

// TestTruncateFrontGatedByCheckpointLSN: once a checkpoint LSN is
// declared, TruncateFront must never reclaim records at or above it,
// no matter what the caller asks for.
func TestTruncateFrontGatedByCheckpointLSN(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 300)
	l.SetCheckpointLSN(100)
	if err := l.TruncateFront(250); err != nil {
		t.Fatal(err)
	}
	// Everything from the gate up must survive.
	var seen int
	if _, err := Replay(dir, 100, func(seq int64, e graph.Edge) error {
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 200 {
		t.Fatalf("records >= 100 after gated truncate: %d, want 200", seen)
	}
	// Raising the gate unlocks the rest; lowering it is a no-op.
	l.SetCheckpointLSN(50)
	if gate := l.CheckpointLSN(); gate != 100 {
		t.Fatalf("gate lowered to %d", gate)
	}
	l.SetCheckpointLSN(250)
	if err := l.TruncateFront(250); err != nil {
		t.Fatal(err)
	}
	first, _ := FirstSeq(dir)
	if first > 250 {
		t.Fatalf("truncate removed records >= 250: first %d", first)
	}
	if first <= 100 {
		t.Fatalf("raised gate did not unlock truncation: first %d", first)
	}
	l.Close()
}

// TestFirstSeqTornSegmentOnly: a directory holding only a torn
// (headerless) segment still reports the LSN its name pins — and Open
// repairs the directory without losing that cursor.
func TestFirstSeqTornSegmentOnly(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(7)), []byte(magic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	first, err := FirstSeq(dir)
	if err != nil {
		t.Fatal(err)
	}
	if first != 7 {
		t.Fatalf("FirstSeq = %d, want 7 (name-derived)", first)
	}
	// Replay treats the headerless segment as an empty log tail.
	n, err := Replay(dir, 0, func(int64, graph.Edge) error {
		t.Fatal("callback on headerless log")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("replay next seq = %d, want 7", n)
	}
	// Open drops the torn file but keeps the LSN cursor it pinned.
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l.Seq() != 7 {
		t.Fatalf("repaired seq = %d, want 7", l.Seq())
	}
	appendN(t, l, 7, 3)
	l.Close()
	if got := replayAll(t, dir, 0); len(got) != 3 {
		t.Fatalf("after repair: %d records, want 3", len(got))
	}
}

// TestOpenAfterCrashDuringRotation: intact segments followed by a
// headerless newest segment (the crash-mid-rotation shape) must open,
// keep every intact record, and continue the sequence.
func TestOpenAfterCrashDuringRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 50)
	l.Close()
	// Fake the crash: a new segment file exists but its header never
	// landed (0 bytes, then a second run with a partial header).
	for _, partial := range [][]byte{nil, []byte(magic[:5])} {
		if err := os.WriteFile(filepath.Join(dir, segName(50)), partial, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{SegmentBytes: 128})
		if err != nil {
			t.Fatalf("open with headerless tail: %v", err)
		}
		if l2.Seq() != 50 {
			t.Fatalf("seq = %d, want 50", l2.Seq())
		}
		l2.Close()
	}
	if got := replayAll(t, dir, 0); len(got) != 50 {
		t.Fatalf("replayed %d, want 50", len(got))
	}
}

// TestDurableLSNAndSyncs: the durable horizon trails the tail until a
// commit, and Syncs counts the fsyncs that moved it.
func TestDurableLSNAndSyncs(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if d := l.DurableLSN(); d != 0 {
		t.Fatalf("durable before sync = %d, want 0", d)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := l.DurableLSN(); d != 10 {
		t.Fatalf("durable after sync = %d, want 10", d)
	}
	if s := l.Syncs(); s != 1 {
		t.Fatalf("syncs = %d, want 1", s)
	}
	// A sync with no debt is free.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := l.Syncs(); s != 1 {
		t.Fatalf("debt-free sync fsynced: %d", s)
	}
	l.Close()
}

// TestEdgeCodecRoundTrip property-checks the payload codec over random
// edges, including negative vertex IDs and extreme timestamps.
func TestEdgeCodecRoundTrip(t *testing.T) {
	f := func(from, to int64, fl, tl, el int32, ts int64) bool {
		e := graph.Edge{
			From:      graph.VertexID(from),
			To:        graph.VertexID(to),
			FromLabel: graph.Label(fl),
			ToLabel:   graph.Label(tl),
			EdgeLabel: graph.Label(el),
			Time:      graph.Timestamp(ts),
		}
		got, err := decodeEdge(appendEdge(nil, e))
		return err == nil && reflect.DeepEqual(got, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeNeverPanics feeds random byte soup to the decoder: it must
// return an error or an edge, never panic or over-read.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		_, _ = decodeEdge(b)
	}
}

// TestRandomCrashPoints simulates a crash after every possible byte
// length of a small log and checks that Open+Replay always yields an
// intact prefix of what was appended.
func TestRandomCrashPoints(t *testing.T) {
	master := t.TempDir()
	l, err := Open(master, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 8)
	l.Close()
	segs, _ := listSegments(master)
	full, err := os.ReadFile(filepath.Join(master, segs[0].name))
	if err != nil {
		t.Fatal(err)
	}

	// cut < len(magic) is the crash-during-rotation shape: a segment
	// without a complete header holds no records, and Open drops it.
	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, dir, 0)
		for i, e := range got {
			want := testEdge(int64(i))
			want.ID = graph.EdgeID(i)
			if e != want {
				t.Fatalf("cut %d: record %d corrupted: %+v", cut, i, e)
			}
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if l2.Seq() != int64(len(got)) {
			t.Fatalf("cut %d: seq %d != replayed %d", cut, l2.Seq(), len(got))
		}
		l2.Close()
	}
}

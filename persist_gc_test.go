package timingsubg

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWALDoesNotGrowUnboundedly: with periodic checkpoints, old WAL
// segments must be reclaimed, so the durability directory's size is
// bounded by (window state + checkpoint cadence), not stream length.
func TestWALDoesNotGrowUnboundedly(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	dir := t.TempDir()
	// Small segments so GC has something to reclaim.
	ps := openDurable(t, q, 30, Durability{Dir: dir, CheckpointEvery: 200, SegmentBytes: 2048}, nil)

	dirBytes := func() int64 {
		var total int64
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			info, err := ent.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
		return total
	}
	segCount := func() int {
		m, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		return len(m)
	}

	var after2k, after10k int64
	for i, e := range persistTestStream(labels, 10000, 61) {
		if _, err := ps.Feed(e); err != nil {
			t.Fatal(err)
		}
		if i == 1999 {
			after2k = dirBytes()
		}
	}
	after10k = dirBytes()
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	// 5× more edges must not mean 5× more disk: allow generous slack
	// (checkpoint files, one open segment) but catch unbounded growth.
	if after10k > 3*after2k {
		t.Fatalf("durability dir grew from %d to %d bytes (unbounded growth?)", after2k, after10k)
	}
	if n := segCount(); n > 4 {
		t.Fatalf("%d WAL segments retained after checkpointing; GC not working", n)
	}
}

// TestWALBoundedAfterCheckpoint pins the absolute truncation contract:
// once a checkpoint covers the whole log, the on-disk WAL is at most
// the open segment plus one boundary segment — independent of how many
// segment-multiples the stream wrote before it.
func TestWALBoundedAfterCheckpoint(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	dir := t.TempDir()
	const segBytes = 2048
	dur := Durability{Dir: dir, CheckpointEvery: 200, SegmentBytes: segBytes}
	ps := openDurable(t, q, 30, dur, nil)
	feedEach(t, ps, persistTestStream(labels, 10000, 63))
	// 10k edges is dozens of 2KiB segments' worth of records; an
	// explicit checkpoint at the tail must reclaim all but the live
	// suffix.
	if err := ps.fl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 2 {
		t.Fatalf("%d WAL segments after full checkpoint, want <= 2 (open + boundary)", len(segs))
	}
	var walBytes int64
	for _, s := range segs {
		info, err := os.Stat(s)
		if err != nil {
			t.Fatal(err)
		}
		walBytes += info.Size()
	}
	if walBytes > 3*segBytes {
		t.Fatalf("WAL holds %d bytes after full checkpoint, want <= %d", walBytes, 3*segBytes)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	// The truncated log plus checkpoint must still recover.
	ps2, err := Open(Config{Query: q, Window: 30, Durable: &dur})
	if err != nil {
		t.Fatalf("reopen after truncation: %v", err)
	}
	if err := ps2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncIntervalPlumbing: Durability.SyncInterval must reach
// the WAL — with cadence sync disabled, the background group-commit
// ticker alone makes appends durable, visible as Stats().WALSyncs.
func TestSyncIntervalPlumbing(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	dir := t.TempDir()
	ps := openDurable(t, q, 30, Durability{Dir: dir, SyncInterval: 2 * time.Millisecond}, nil)
	feedEach(t, ps, persistTestStream(labels, 50, 64))
	deadline := time.Now().Add(5 * time.Second)
	for ps.Stats().WALSyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background WAL sync never fired (SyncInterval not plumbed through?)")
		}
		time.Sleep(time.Millisecond)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointGCKeepsTwo: after many checkpoints only the newest two
// checkpoint files remain (save-then-GC crash fallback contract).
func TestCheckpointGCKeepsTwo(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	dir := t.TempDir()
	ps := openDurable(t, q, 30, Durability{Dir: dir, CheckpointEvery: 50}, nil)
	feedEach(t, ps, persistTestStream(labels, 500, 62))
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	m, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if len(m) > 2 {
		t.Fatalf("%d checkpoint files retained, want <= 2", len(m))
	}
	if len(m) == 0 {
		t.Fatal("no checkpoint written")
	}
}

package timingsubg

import (
	"errors"
	"os"
	"testing"

	"timingsubg/internal/wal"
)

// Durable-fleet fault injection: the WAL directory is wrapped in a
// torn-write filesystem shim, an AppendBatch is killed mid-batch (or,
// through the per-edge Feed driver, mid-record), and the restarted
// fleet must replay to the last complete record with engine state
// matching the WAL exactly — the durability contract under the exact
// crash shape the pipeline's log-once-then-execute order has to
// survive, on both executors.

// errTornWrite marks a shim-induced failure.
var errTornWrite = errors.New("injected torn write")

// tornWalFile wraps a real segment file and enforces a shared byte
// budget: the write that would exceed it lands only partially and
// fails; every later write fails outright. (Mirrors the shim in
// internal/wal's fault tests; this one drives the whole engine stack.)
type tornWalFile struct {
	f      wal.File
	budget *int64
}

func tornWalOpen(budget *int64) wal.OpenFileFunc {
	return func(name string, flag int, perm os.FileMode) (wal.File, error) {
		f, err := os.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return &tornWalFile{f: f, budget: budget}, nil
	}
}

func (t *tornWalFile) Write(p []byte) (int, error) {
	if *t.budget <= 0 {
		return 0, errTornWrite
	}
	if int64(len(p)) > *t.budget {
		n, _ := t.f.Write(p[:*t.budget])
		*t.budget = 0
		return n, errTornWrite
	}
	*t.budget -= int64(len(p))
	return t.f.Write(p)
}

func (t *tornWalFile) Sync() error                               { return t.f.Sync() }
func (t *tornWalFile) Close() error                              { return t.f.Close() }
func (t *tornWalFile) Truncate(size int64) error                 { return t.f.Truncate(size) }
func (t *tornWalFile) Seek(off int64, whence int) (int64, error) { return t.f.Seek(off, whence) }

func TestDurableFleetTornWriteCrashRecovery(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, d := range feedDrivers {
			t.Run(map[int]string{1: "sequential", 4: "sharded"}[workers]+"/"+d.name, func(t *testing.T) {
				labels := NewLabels()
				q := persistTestQuery(t, labels)
				star := starQuery(t)
				edges := persistTestStream(labels, 3000, 59)
				const window = 60
				dir := t.TempDir()
				specs := []QuerySpec{{Name: "chain", Query: q}, {Name: "star", Query: star}}

				// Run 1: feed batches through a WAL that tears a write
				// mid-batch after ~4 KiB.
				budget := int64(4096)
				dur := &Durability{Dir: dir, CheckpointEvery: 1 << 20, SyncEvery: 1}
				dur.openFile = tornWalOpen(&budget)
				fl, err := OpenFleet(Config{
					Queries: specs, Window: window,
					Durable: dur, FleetWorkers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				var acked int64
				var faulted bool
				for off := 0; off < len(edges) && !faulted; off += 128 {
					end := off + 128
					if end > len(edges) {
						end = len(edges)
					}
					n, err := d.feed(fl, edges[off:end])
					acked += int64(n)
					if err != nil {
						if !errors.Is(err, errTornWrite) {
							t.Fatalf("feed failed with %v, want injected fault", err)
						}
						if n == end-off {
							t.Fatal("fault reported but whole batch acknowledged")
						}
						faulted = true
					}
				}
				if !faulted {
					t.Fatal("budget never exhausted — fault not exercised")
				}
				// WAL/engine no-divergence: the fleet fed exactly the edges
				// the log acknowledged, even though the append died mid-batch.
				if st := fl.Stats(); st.Fed != acked || st.WALSeq != acked {
					t.Fatalf("pre-crash fed %d, WAL %d, acked %d — engine diverged from log", st.Fed, st.WALSeq, acked)
				}
				// Crash: abandon without Close.

				// Run 2: reopen through the real filesystem. Recovery must
				// truncate the torn tail and replay every complete record —
				// possibly a few more than were acknowledged, if the torn
				// chunk broke on a record boundary.
				fl2, err := OpenFleet(Config{
					Queries: specs, Window: window,
					Durable:      &Durability{Dir: dir, CheckpointEvery: 1 << 20},
					FleetWorkers: workers,
				})
				if err != nil {
					t.Fatalf("reopen after torn write: %v", err)
				}
				st := fl2.Stats()
				recovered := st.WALSeq
				if recovered < acked || recovered > int64(len(edges)) {
					t.Fatalf("recovered %d records, acked %d", recovered, acked)
				}
				if st.Replayed != recovered {
					t.Fatalf("replayed %d, want the full %d-record log (no checkpoint was written)", st.Replayed, recovered)
				}

				// Engine state must match the WAL exactly: a reference fleet
				// fed precisely the surviving records reports identical
				// per-query state.
				ref, err := OpenFleet(Config{Queries: specs, Window: window})
				if err != nil {
					t.Fatal(err)
				}
				feedChunks(t, ref, edges[:recovered], 128)
				refSt := ref.Stats()
				for _, name := range []string{"chain", "star"} {
					if got, want := snap(st.Queries[name]), snap(refSt.Queries[name]); got != want {
						t.Fatalf("recovered member %s = %+v, want WAL-exact %+v", name, got, want)
					}
				}

				// The recovered fleet keeps matching: finish the stream on
				// both and the totals must agree end to end.
				feedChunks(t, fl2, edges[recovered:], 128)
				feedChunks(t, ref, edges[recovered:], 128)
				if err := fl2.Close(); err != nil {
					t.Fatal(err)
				}
				ref.Close()
				finalSt, finalRef := fl2.Stats(), ref.Stats()
				for _, name := range []string{"chain", "star"} {
					if got, want := snap(finalSt.Queries[name]), snap(finalRef.Queries[name]); got != want {
						t.Fatalf("post-recovery member %s = %+v, want %+v", name, got, want)
					}
				}
			})
		}
	}
}

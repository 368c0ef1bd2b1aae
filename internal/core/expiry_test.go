package core_test

import (
	"fmt"
	"sort"
	"testing"

	"timingsubg/internal/core"
	"timingsubg/internal/datagen"
	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/querygen"
)

// The batch-expiry equivalence suite: ProcessBatch sweeps every expired
// edge of a window slide in one transaction over the per-level expiry
// order instead of cascading edge-at-a-time deletes. That is pure
// performance — a slide must produce identical match sets and identical
// Matches/PartialIns/PartialDel/EdgesOut counters either way, on both
// storage backends (MS-tree with its join indexes, and Independent,
// which scans whole items). Only the batch-plane counters
// (ExpiryBatches/ExpiryEvicted) are allowed to differ: zero on the
// per-edge path, the slide/edge tallies on the batched path.

// expiryRun drives one datagen stream through an engine with a small
// (high-churn) window and returns sorted match keys plus counters.
func expiryRun(t *testing.T, storage core.Storage, batched bool, ds datagen.Dataset, trial int) ([]string, *core.Stats, bool) {
	t.Helper()
	labels := graph.NewLabels()
	gen := datagen.New(ds, labels, datagen.Config{Vertices: 80, Seed: int64(trial*31 + 5)})
	edges := gen.Take(1200)
	q, _, err := querygen.Generate(edges[:500], querygen.Config{
		Size: 4, Order: querygen.RandomOrder, Seed: int64(trial*7 + 1)})
	if err != nil {
		return nil, nil, false
	}
	var keys []string
	eng := core.New(q, core.Config{
		Storage: storage,
		OnMatch: func(m *match.Match) { keys = append(keys, m.Key()) },
	})
	proc := eng.Process
	if batched {
		proc = eng.ProcessBatch
	}
	runStream(t, edges, 150, proc)
	sort.Strings(keys)
	return keys, eng.Stats(), true
}

func TestExpiryBatchEquivalence(t *testing.T) {
	modes := []struct {
		name    string
		storage core.Storage
	}{
		{"mstree", core.MSTree},
		{"independent", core.Independent},
	}
	anyBatches := false
	for _, ds := range datagen.Datasets() {
		for trial := 0; trial < 3; trial++ {
			for _, m := range modes {
				perKeys, perStats, ok := expiryRun(t, m.storage, false, ds, trial)
				if !ok {
					continue
				}
				batKeys, batStats, _ := expiryRun(t, m.storage, true, ds, trial)
				name := fmt.Sprintf("%s/%d/%s", ds, trial, m.name)
				diffKeys(t, name, perKeys, batKeys)
				if batStats.Matches.Load() != perStats.Matches.Load() ||
					batStats.PartialIns.Load() != perStats.PartialIns.Load() ||
					batStats.PartialDel.Load() != perStats.PartialDel.Load() ||
					batStats.EdgesOut.Load() != perStats.EdgesOut.Load() ||
					batStats.JoinCandidates.Load() != perStats.JoinCandidates.Load() {
					t.Errorf("%s: batched counters diverge from per-edge:\n  got  matches=%d ins=%d del=%d out=%d cand=%d\n  want matches=%d ins=%d del=%d out=%d cand=%d",
						name,
						batStats.Matches.Load(), batStats.PartialIns.Load(), batStats.PartialDel.Load(),
						batStats.EdgesOut.Load(), batStats.JoinCandidates.Load(),
						perStats.Matches.Load(), perStats.PartialIns.Load(), perStats.PartialDel.Load(),
						perStats.EdgesOut.Load(), perStats.JoinCandidates.Load())
				}
				if perStats.ExpiryBatches.Load() != 0 || perStats.ExpiryEvicted.Load() != 0 {
					t.Errorf("%s: per-edge path reported batch counters: batches=%d evicted=%d",
						name, perStats.ExpiryBatches.Load(), perStats.ExpiryEvicted.Load())
				}
				// On the batched path every delete rides a batch, so the
				// eviction tally must equal the delete-op counter, and the
				// mean batch size (evicted/batches) is at least 1.
				if got, want := batStats.ExpiryEvicted.Load(), batStats.EdgesOut.Load(); got != want {
					t.Errorf("%s: ExpiryEvicted=%d != EdgesOut=%d", name, got, want)
				}
				if b := batStats.ExpiryBatches.Load(); b > 0 {
					anyBatches = true
					if batStats.ExpiryEvicted.Load() < b {
						t.Errorf("%s: evicted %d < batches %d", name,
							batStats.ExpiryEvicted.Load(), b)
					}
				}
			}
		}
	}
	if !anyBatches {
		t.Error("no workload slid the window on the batched path; the equivalence test is vacuous")
	}
}

// TestExpiryBatchDrainsSpace is the batch-path twin of
// TestExpiryRemovesEverything: after the whole window slides out through
// DeleteExpired sweeps, storage must drain to zero — including the
// per-level expiry heaps, whose lazily-deleted dead residents would
// otherwise pin node memory and show up in SpaceBytes.
func TestExpiryBatchDrainsSpace(t *testing.T) {
	for _, storage := range []core.Storage{core.MSTree, core.Independent} {
		labels := graph.NewLabels()
		gen := datagen.New(datagen.SocialStream, labels, datagen.Config{Vertices: 200, Seed: 4})
		edges := gen.Take(400)
		q, _, err := querygen.Generate(edges, querygen.Config{Size: 3, Seed: 8})
		if err != nil {
			t.Skipf("no query: %v", err)
		}
		eng := core.New(q, core.Config{Storage: storage})
		st := graph.NewStream(100)
		for _, e := range edges {
			stored, expired, err := st.Push(e)
			if err != nil {
				t.Fatal(err)
			}
			eng.ProcessBatch(stored, expired)
		}
		quiet := labels.Intern("quiet-label")
		stored, expired, err := st.Push(graph.Edge{
			From: 1, To: 2, FromLabel: quiet, ToLabel: quiet,
			Time: edges[len(edges)-1].Time + 10_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.ProcessBatch(stored, expired)
		if got := eng.PartialMatchCount(); got != 0 {
			t.Errorf("storage %d: %d partial matches survived batched full expiry", storage, got)
		}
		if eng.SpaceBytes() != 0 {
			t.Errorf("storage %d: space must drain to 0, got %d", storage, eng.SpaceBytes())
		}
	}
}

package core_test

import (
	"fmt"
	"sort"
	"testing"

	"timingsubg/internal/core"
	"timingsubg/internal/datagen"
	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/query"
	"timingsubg/internal/querygen"
)

// The batch-expiry equivalence suite: ProcessBatch sweeps every expired
// edge of a window slide in one cascade from each sub-list's expired
// item-1 prefix instead of cascading edge-at-a-time deletes. That is pure
// performance — a slide must produce identical match sets and identical
// Matches/PartialIns/PartialDel/EdgesOut counters either way, on both
// storage backends (MS-tree with its join indexes, and Independent,
// which scans whole items). Only the batch-plane counters
// (ExpiryBatches/ExpiryEvicted) are allowed to differ: zero on the
// per-edge path, the slide/edge tallies on the batched path.

// expiryShape is one stream and query shape of the equivalence suite.
type expiryShape struct {
	name  string
	size  int
	order querygen.OrderKind
	// burst, when positive, remaps the stream into bursts of that many
	// edges a tick apart, each a window after the last, so one slide
	// evicts a whole burst (tsbench's social_burst shape).
	burst int
}

var expiryShapes = []expiryShape{
	{name: "slide", size: 4, order: querygen.RandomOrder},
	{name: "burst", size: 4, order: querygen.RandomOrder, burst: 100},
	// Unordered queries decompose into one TC-subquery per edge (k =
	// size), so dead submatches cascade through every global item.
	{name: "slide-k4", size: 4, order: querygen.EmptyOrder},
	{name: "burst-k4", size: 4, order: querygen.EmptyOrder, burst: 100},
}

// expiryRun drives one datagen stream through an engine with a small
// (high-churn) window and returns sorted match keys, counters and the
// decomposition size.
func expiryRun(t *testing.T, storage core.Storage, batched bool, ds datagen.Dataset, trial int, sh expiryShape) ([]string, *core.Stats, int, bool) {
	t.Helper()
	const window = 150
	labels := graph.NewLabels()
	gen := datagen.New(ds, labels, datagen.Config{Vertices: 80, Seed: int64(trial*31 + 5)})
	edges := gen.Take(1200)
	q, _, err := querygen.Generate(edges[:500], querygen.Config{
		Size: sh.size, Order: sh.order, Seed: int64(trial*7 + 1)})
	if err != nil {
		return nil, nil, 0, false
	}
	if sh.burst > 0 {
		for i := range edges {
			edges[i].Time = graph.Timestamp((i/sh.burst)*2*window + i%sh.burst)
		}
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
	runStream(t, edges, window, proc)
	sort.Strings(keys)
	return keys, eng.Stats(), eng.K(), true
}

func TestExpiryBatchEquivalence(t *testing.T) {
	modes := []struct {
		name    string
		storage core.Storage
	}{
		{"mstree", core.MSTree},
		{"independent", core.Independent},
	}
	anyBatches, anyBulk, anyDeepMatches := false, false, false
	for _, sh := range expiryShapes {
		for _, ds := range datagen.Datasets() {
			for trial := 0; trial < 3; trial++ {
				for _, m := range modes {
					perKeys, perStats, k, ok := expiryRun(t, m.storage, false, ds, trial, sh)
					if !ok {
						continue
					}
					batKeys, batStats, _, _ := expiryRun(t, m.storage, true, ds, trial, sh)
					name := fmt.Sprintf("%s/%s/%d/%s", sh.name, ds, trial, m.name)
					diffKeys(t, name, perKeys, batKeys)
					if k >= 3 && len(perKeys) > 0 {
						anyDeepMatches = true
					}
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
						if sh.burst > 0 && batStats.ExpiryEvicted.Load() >= int64(sh.burst/2)*b {
							anyBulk = true
						}
					}
				}
			}
		}
	}
	if !anyBatches {
		t.Error("no workload slid the window on the batched path; the equivalence test is vacuous")
	}
	if !anyBulk {
		t.Error("no burst-shaped run evicted a burst in one slide; the bulk path went untested")
	}
	if !anyDeepMatches {
		t.Error("no run with k ≥ 3 matched anything; the global cascade went untested")
	}
}

// TestDenseChurnSerial drives a dense stream through a tiny window, so
// nearly every slide expires partial matches while new edges extend
// others: a triangle query A→B→C→A with (A→B) ≺ (C→A) over nine vertices
// (three per label), 700 edges, window 40. Edge-at-a-time and batched
// expiry, on both storage backends, must report the same valid matches
// and the same counters.
func TestDenseChurnSerial(t *testing.T) {
	labels := graph.NewLabels()
	la, lb, lc := labels.Intern("A"), labels.Intern("B"), labels.Intern("C")
	b := query.NewBuilder()
	va, vb, vc := b.AddVertex(la), b.AddVertex(lb), b.AddVertex(lc)
	ab := b.AddEdge(va, vb)
	b.AddEdge(vb, vc)
	ca := b.AddEdge(vc, va)
	b.Before(ab, ca)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	for round := 0; round < 700; round++ {
		i, j := graph.VertexID(round%3), graph.VertexID((round/3)%3)
		e := graph.Edge{Time: graph.Timestamp(round + 1)}
		switch round % 3 {
		case 0:
			e.From, e.To, e.FromLabel, e.ToLabel = i, 3+j, la, lb
		case 1:
			e.From, e.To, e.FromLabel, e.ToLabel = 3+i, 6+j, lb, lc
		case 2:
			e.From, e.To, e.FromLabel, e.ToLabel = 6+i, j, lc, la
		}
		edges = append(edges, e)
	}

	type result struct {
		keys  []string
		stats *core.Stats
	}
	run := func(storage core.Storage, batched bool) result {
		var keys []string
		eng := core.New(q, core.Config{Storage: storage, OnMatch: func(m *match.Match) {
			if err := m.Verify(q); err != nil {
				t.Errorf("invalid match %s: %v", m, err)
			}
			keys = append(keys, m.Key())
		}})
		proc := eng.Process
		if batched {
			proc = eng.ProcessBatch
		}
		runStream(t, edges, 40, proc)
		sort.Strings(keys)
		return result{keys, eng.Stats()}
	}
	counters := func(st *core.Stats) [7]int64 {
		return [7]int64{st.EdgesIn.Load(), st.EdgesOut.Load(), st.Discarded.Load(),
			st.Matches.Load(), st.PartialIns.Load(), st.PartialDel.Load(), st.JoinCandidates.Load()}
	}
	want := run(core.MSTree, false)
	if len(want.keys) == 0 {
		t.Fatal("dense churn produced no matches; widen it")
	}
	for _, storage := range []core.Storage{core.MSTree, core.Independent} {
		per := run(storage, false)
		bat := run(storage, true)
		for _, r := range []struct {
			name string
			res  result
		}{{"peredge", per}, {"batched", bat}} {
			name := fmt.Sprintf("storage%d/%s", storage, r.name)
			diffKeys(t, name, want.keys, r.res.keys)
			if got, w := counters(r.res.stats), counters(want.stats); got != w {
				t.Errorf("%s: counters (in, out, discarded, matches, ins, del, cand) = %v, want %v", name, got, w)
			}
		}
		if a, b := per.stats.JoinScanned.Load(), bat.stats.JoinScanned.Load(); a != b {
			t.Errorf("storage%d: JoinScanned per-edge %d, batched %d", storage, a, b)
		}
	}
}

// TestExpiryBatchDrainsSpace is the batch-path twin of
// TestExpiryRemovesEverything: after the whole window slides out through
// DeleteExpired sweeps, storage must drain to zero — including the
// MS-tree's index buckets, whose keys must go with their last node or
// they would show up in SpaceBytes.
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

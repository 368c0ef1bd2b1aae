package timingsubg

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"timingsubg/internal/core"
	"timingsubg/internal/datagen"
	"timingsubg/internal/graph"
	"timingsubg/internal/querygen"
)

// The join-index equivalence suite: the MS-tree vertex join indexes are
// pure performance — every engine composition must report the per-query
// match sets and result counters of coreReference, on either storage
// backend (Independent has no index and scans whole items), at any
// fleet worker count. Deeper counter equivalence (PartialIns/PartialDel/
// JoinCandidates) is asserted per stream in internal/core's
// TestIndexEquivalenceAndSelectivity; this layer proves the public
// compositions — including sharded fleets, where shard workers race
// expiry cascades against candidate probes — inherit it.

// coreReference is the independent oracle of the equivalence suites:
// one serial core.Engine per query, each behind its own window, fed
// edge-at-a-time through Process (the paper's per-edge deletion
// algorithm) — no fleet, no batching, no sharding. It returns the
// sorted per-query match keys and the summed counters the public
// snapshot mirrors (ExpiryEvicted carries the deletes performed: the
// eviction tally is a property of stream and window, however the
// slides are swept).
func coreReference(t *testing.T, specs []QuerySpec, edges []Edge, window Timestamp) (map[string][]string, Stats) {
	t.Helper()
	keys := map[string][]string{}
	var sum Stats
	for _, spec := range specs {
		name := spec.Name
		eng := core.New(spec.Query, core.Config{OnMatch: func(m *Match) {
			keys[name] = append(keys[name], m.Key())
		}})
		st := graph.NewStream(window)
		for _, e := range edges {
			stored, expired, err := st.Push(e)
			if err != nil {
				t.Fatal(err)
			}
			eng.Process(stored, expired)
		}
		sort.Strings(keys[name])
		cs := eng.Stats()
		sum.Matches += cs.Matches.Load()
		sum.JoinScanned += cs.JoinScanned.Load()
		sum.JoinCandidates += cs.JoinCandidates.Load()
		sum.ExpiryEvicted += cs.EdgesOut.Load()
		sum.PartialMatches += eng.PartialMatchCount()
	}
	return keys, sum
}

// requireSameKeys fails unless got and want hold the same sorted
// per-query match keys.
func requireSameKeys(t *testing.T, got, want map[string][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("per-query sets: got %d queries, want %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Errorf("query %s: %d matches, want %d", name, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("query %s: match set diverges at %d: %s != %s", name, i, g[i], w[i])
				break
			}
		}
	}
}

// equivFleetRun feeds one stream to a fleet composition under window and
// returns the sorted per-query match keys plus the final snapshot.
func equivFleetRun(t *testing.T, cfg Config, specs []QuerySpec, edges []Edge, batch int, window Timestamp) (map[string][]string, Stats) {
	t.Helper()
	var mu sync.Mutex
	got := map[string][]string{}
	cfg.Queries = specs
	cfg.Window = window
	cfg.OnMatch = func(query string, m *Match) {
		mu.Lock()
		got[query] = append(got[query], m.Key())
		mu.Unlock()
	}
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batch > 0 {
		feedChunks(t, eng, edges, batch)
	} else {
		feedEach(t, eng, edges)
	}
	st := eng.Stats()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for name := range got {
		sort.Strings(got[name])
	}
	return got, st
}

// equivRows are the compositions both equivalence suites check against
// coreReference; batch > 0 feeds through FeedBatch in chunks of that
// size.
var equivRows = []struct {
	name  string
	cfg   Config
	batch int
}{
	{name: "mstree", cfg: Config{}},
	{name: "independent", cfg: Config{Storage: Independent}},
	{name: "workers4", cfg: Config{FleetWorkers: 4}, batch: 128},
}

// equivSpecs generates a 3-query roster from the stream prefix.
func equivSpecs(t *testing.T, edges []Edge) []QuerySpec {
	t.Helper()
	var specs []QuerySpec
	for i, size := range []int{3, 4, 4} {
		q, _, err := querygen.Generate(edges[:500], querygen.Config{
			Size: size, Order: querygen.RandomOrder, Seed: int64(i*19 + 3)})
		if err != nil {
			continue
		}
		specs = append(specs, QuerySpec{Name: fmt.Sprintf("q%d", i), Query: q})
	}
	if len(specs) < 2 {
		t.Skip("stream prefix yielded too few queries")
	}
	return specs
}

func TestJoinIndexEquivalenceFleet(t *testing.T) {
	for _, ds := range datagen.Datasets() {
		t.Run(ds.String(), func(t *testing.T) {
			labels := NewLabels()
			gen := datagen.New(ds, labels, datagen.Config{Vertices: 90, Seed: 41})
			edges := gen.Take(1500)
			specs := equivSpecs(t, edges)

			refKeys, ref := coreReference(t, specs, edges, 300)
			if ref.Matches == 0 {
				t.Skip("degenerate workload: no matches")
			}

			for _, tc := range equivRows {
				t.Run(tc.name, func(t *testing.T) {
					keys, st := equivFleetRun(t, tc.cfg, specs, edges, tc.batch, 300)
					requireSameKeys(t, keys, refKeys)
					if st.Matches != ref.Matches || st.PartialMatches != ref.PartialMatches {
						t.Errorf("counters diverge: matches=%d partials=%d, want matches=%d partials=%d",
							st.Matches, st.PartialMatches, ref.Matches, ref.PartialMatches)
					}
					if st.JoinCandidates != ref.JoinCandidates {
						t.Errorf("candidate count diverges: %d, want %d", st.JoinCandidates, ref.JoinCandidates)
					}
					if tc.cfg.Storage == Independent {
						if st.JoinScanned < st.JoinCandidates {
							t.Errorf("scanned %d < candidates %d", st.JoinScanned, st.JoinCandidates)
						}
					} else if st.JoinScanned != st.JoinCandidates {
						t.Errorf("indexed fleet visited non-candidates: scanned=%d candidates=%d",
							st.JoinScanned, st.JoinCandidates)
					}
				})
			}
		})
	}
}

// TestJoinIndexStatsSurfaced checks the selectivity counters flow
// through the unified snapshot on a plain single engine: an indexed run
// reports scanned == candidates > 0, and the same stream on the
// index-free Independent backend reports the same candidates with more
// visits.
func TestJoinIndexStatsSurfaced(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 2000, 23)

	run := func(storage Storage) Stats {
		eng, err := Open(Config{Query: q, Window: 60, Storage: storage})
		if err != nil {
			t.Fatal(err)
		}
		feedEach(t, eng, edges)
		st := eng.Stats()
		eng.Close()
		return st
	}
	idx, scan := run(MSTree), run(Independent)
	if idx.JoinCandidates == 0 {
		t.Fatal("workload produced no join candidates")
	}
	if idx.JoinScanned != idx.JoinCandidates {
		t.Errorf("indexed engine: scanned=%d != candidates=%d", idx.JoinScanned, idx.JoinCandidates)
	}
	if scan.JoinCandidates != idx.JoinCandidates {
		t.Errorf("scan engine candidates %d != indexed %d", scan.JoinCandidates, idx.JoinCandidates)
	}
	if scan.JoinScanned <= idx.JoinScanned {
		t.Errorf("scan engine should visit more than the index (scan %d, indexed %d)",
			scan.JoinScanned, idx.JoinScanned)
	}
	if idx.Matches != scan.Matches {
		t.Errorf("matches diverge: indexed %d, scan %d", idx.Matches, scan.Matches)
	}
}

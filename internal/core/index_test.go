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

// indexRun drives one datagen stream through an engine on the given
// storage backend and returns its sorted match keys plus the final
// counters.
func indexRun(t *testing.T, storage core.Storage, ds datagen.Dataset, trial int) ([]string, *core.Stats, bool) {
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
	runStream(t, edges, 300, eng.Process)
	sort.Strings(keys)
	return keys, eng.Stats(), true
}

// TestIndexEquivalenceAndSelectivity is the join-index acceptance
// property. The reference is the Independent backend (the paper's
// Timing-IND), whose flat items have no index and are scanned whole on
// every probe; the indexed MS-tree engine must report the identical
// match set and identical Matches/PartialIns/PartialDel/JoinCandidates
// counters — the index changes which stored matches are *visited*,
// never which are candidates or how results form. On the MS-tree
// engine every visited match must be a genuine candidate (scanned ==
// candidates); the reference quantifies what the index skips (scanned
// ≥ candidates, strictly greater whenever any probe had
// non-candidates).
func TestIndexEquivalenceAndSelectivity(t *testing.T) {
	anySelective := false
	for _, ds := range datagen.Datasets() {
		for trial := 0; trial < 3; trial++ {
			refKeys, ref, ok := indexRun(t, core.Independent, ds, trial)
			if !ok {
				continue
			}
			keys, st, ok := indexRun(t, core.MSTree, ds, trial)
			if !ok {
				t.Fatalf("%s/%d: reference generated a query but the MS-tree run did not", ds, trial)
			}
			diffKeys(t, fmt.Sprintf("%s/%d", ds, trial), refKeys, keys)
			if st.Matches.Load() != ref.Matches.Load() ||
				st.PartialIns.Load() != ref.PartialIns.Load() ||
				st.PartialDel.Load() != ref.PartialDel.Load() ||
				st.JoinCandidates.Load() != ref.JoinCandidates.Load() {
				t.Errorf("%s/%d: indexed counters diverge from the scan reference:\n  got  matches=%d ins=%d del=%d cand=%d\n  want matches=%d ins=%d del=%d cand=%d",
					ds, trial,
					st.Matches.Load(), st.PartialIns.Load(), st.PartialDel.Load(), st.JoinCandidates.Load(),
					ref.Matches.Load(), ref.PartialIns.Load(), ref.PartialDel.Load(), ref.JoinCandidates.Load())
			}
			if st.JoinScanned.Load() != st.JoinCandidates.Load() {
				t.Errorf("%s/%d: indexed engine visited non-candidates: scanned=%d candidates=%d",
					ds, trial, st.JoinScanned.Load(), st.JoinCandidates.Load())
			}
			if ref.JoinScanned.Load() < ref.JoinCandidates.Load() {
				t.Errorf("%s/%d: reference scanned %d < candidates %d", ds, trial,
					ref.JoinScanned.Load(), ref.JoinCandidates.Load())
			}
			if ref.JoinScanned.Load() > ref.JoinCandidates.Load() {
				anySelective = true
			}
		}
	}
	if !anySelective {
		t.Error("no workload exercised index selectivity (the scan reference never visited a non-candidate); the property test is vacuous")
	}
}

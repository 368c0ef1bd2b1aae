package core_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"timingsubg/internal/core"
	"timingsubg/internal/datagen"
	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/query"
	"timingsubg/internal/querygen"
)

var updateParity = flag.Bool("update", false, "rewrite testdata/counter_parity.golden from the current tree")

// parityStream is one seeded workload of the counter-parity golden.
type parityStream struct {
	name   string
	ds     datagen.Dataset
	seed   int64
	edges  int
	window graph.Timestamp
	// query returns the stream's query; wantK pins its decomposition
	// size so a querygen change cannot silently drop the cascade arms.
	query func(edges []graph.Edge) (*query.Query, error)
	wantK int
}

var parityStreams = []parityStream{
	{
		// k = 3: a complete Q¹ match cascades right through Q², Q³ and a
		// complete Q² match joins left with the stored Q¹ prefix first,
		// so both arms of the global cascade run.
		name: "social/k3", ds: datagen.SocialStream, seed: 13, edges: 2000, window: 200,
		query: func(edges []graph.Edge) (*query.Query, error) {
			q, _, err := querygen.GenerateWithK(edges[:1500], 5, 3, 17)
			return q, err
		},
		wantK: 3,
	},
	{
		name: "flow/k1", ds: datagen.NetworkFlow, seed: 7, edges: 4000, window: 800,
		query: func(edges []graph.Edge) (*query.Query, error) {
			q, _, err := querygen.GenerateWithK(edges[:1500], 4, 1, 3)
			return q, err
		},
		wantK: 1,
	},
}

// parityLine drives one stream through a fresh engine and renders the
// counters the insert and expiry paths are exact functions of, plus an
// FNV-64 hash of the sorted match-key multiset.
func parityLine(t *testing.T, ps parityStream, storage core.Storage, batched bool) string {
	t.Helper()
	labels := graph.NewLabels()
	edges := datagen.New(ps.ds, labels, datagen.Config{Vertices: 80, Seed: ps.seed}).Take(ps.edges)
	q, err := ps.query(edges)
	if err != nil {
		t.Fatalf("%s: %v", ps.name, err)
	}
	var keys []string
	eng := core.New(q, core.Config{
		Storage: storage,
		OnMatch: func(m *match.Match) { keys = append(keys, m.Key()) },
	})
	if eng.K() != ps.wantK {
		t.Fatalf("%s: decomposition has k=%d, want %d", ps.name, eng.K(), ps.wantK)
	}
	proc, procName := eng.Process, "Process"
	if batched {
		proc, procName = eng.ProcessBatch, "ProcessBatch"
	}
	storageName := "MSTree"
	if storage == core.Independent {
		storageName = "Independent"
	}
	runStream(t, edges, ps.window, proc)
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	st := eng.Stats()
	return fmt.Sprintf("%s %s/%s matches=%d partial_ins=%d partial_del=%d join_scanned=%d join_candidates=%d discarded=%d keys=%016x\n",
		ps.name, procName, storageName, st.Matches.Load(), st.PartialIns.Load(), st.PartialDel.Load(),
		st.JoinScanned.Load(), st.JoinCandidates.Load(), st.Discarded.Load(), h.Sum64())
}

// TestCounterParity pins the engine's exact counters and match multiset
// on seeded SocialStream (k = 3) and NetworkFlow (k = 1) streams, for
// per-edge and batched expiry on both storage backends. The counters
// are deterministic functions of the stream, so any change to the
// insert or delete paths that is meant to be pure performance must
// leave testdata/counter_parity.golden untouched.
func TestCounterParity(t *testing.T) {
	var b strings.Builder
	for _, ps := range parityStreams {
		for _, storage := range []core.Storage{core.MSTree, core.Independent} {
			for _, batched := range []bool{false, true} {
				b.WriteString(parityLine(t, ps, storage, batched))
			}
		}
	}
	golden := filepath.Join("testdata", "counter_parity.golden")
	if *updateParity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("engine counters drifted from %s (rerun with -update only for an intended semantic change)\n--- got ---\n%s", golden, got)
	}
}

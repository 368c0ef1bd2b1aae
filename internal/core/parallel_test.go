package core_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"timingsubg/internal/core"
	"timingsubg/internal/datagen"
	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/querygen"
)

// parallelKeys runs the concurrent engine and returns sorted match keys.
func parallelKeys(t *testing.T, scheme core.LockScheme, workers int, qcfg querygen.Config, ds datagen.Dataset, seed int64, n int, window graph.Timestamp) ([]string, []string) {
	t.Helper()
	labels := graph.NewLabels()
	gen := datagen.New(ds, labels, datagen.Config{Vertices: 60, Seed: seed})
	edges := gen.Take(n)
	q, _, err := querygen.Generate(edges[:n/2], qcfg)
	if err != nil {
		t.Skipf("no query: %v", err)
	}

	// Serial reference.
	var serial []string
	ser := core.New(q, core.Config{OnMatch: func(m *match.Match) {
		serial = append(serial, m.Key())
	}})
	runStream(t, edges, window, ser.Process)
	sort.Strings(serial)

	// Concurrent run.
	var mu sync.Mutex
	var conc []string
	eng := core.New(q, core.Config{OnMatch: func(m *match.Match) {
		if err := m.Verify(q); err != nil {
			t.Errorf("parallel engine emitted invalid match: %v", err)
		}
		mu.Lock()
		conc = append(conc, m.Key())
		mu.Unlock()
	}})
	par := core.NewParallel(eng, scheme, workers)
	runStream(t, edges, window, par.Process)
	par.Wait()
	sort.Strings(conc)
	return serial, conc
}

// TestStreamingConsistency verifies Definition 11: concurrent execution
// under either locking scheme yields exactly the serial result set.
// Workload shapes are chosen to keep match counts in the hundreds while
// still exercising multi-subquery cascades and expiry under contention.
func TestStreamingConsistency(t *testing.T) {
	trials := []struct {
		ds    datagen.Dataset
		size  int
		order querygen.OrderKind
	}{
		{datagen.NetworkFlow, 4, querygen.RandomOrder},
		{datagen.WikiTalk, 5, querygen.FullOrder},
		{datagen.SocialStream, 3, querygen.EmptyOrder},
		{datagen.WikiTalk, 4, querygen.RandomOrder},
	}
	for _, scheme := range []core.LockScheme{core.FineGrained, core.AllLocks} {
		for _, workers := range []int{2, 5} {
			for ti, tr := range trials {
				scheme, workers, ti, tr := scheme, workers, ti, tr
				name := fmt.Sprintf("scheme%d/w%d/trial%d", scheme, workers, ti)
				t.Run(name, func(t *testing.T) {
					qcfg := querygen.Config{Size: tr.size, Order: tr.order, Seed: int64(ti*17 + 3)}
					serial, conc := parallelKeys(t, scheme, workers, qcfg, tr.ds, int64(ti*101+11), 800, 250)
					diffKeys(t, "parallel-vs-serial", serial, conc)
				})
			}
		}
	}
}

// TestParallelStats checks that the concurrent engine's counters match
// the serial engine's under both locking schemes — including the ones
// each worker's insert scratch accumulates and flushes.
func TestParallelStats(t *testing.T) {
	labels := graph.NewLabels()
	gen := datagen.New(datagen.WikiTalk, labels, datagen.Config{Vertices: 50, Seed: 9})
	edges := gen.Take(500)
	q, _, err := querygen.Generate(edges[:200], querygen.Config{Size: 4, Seed: 5})
	if err != nil {
		t.Skipf("no query: %v", err)
	}
	ser := core.New(q, core.Config{})
	runStream(t, edges, 150, ser.Process)

	counters := []struct {
		name string
		get  func(*core.Engine) int64
	}{
		{"EdgesIn", func(e *core.Engine) int64 { return e.Stats().EdgesIn.Load() }},
		{"EdgesOut", func(e *core.Engine) int64 { return e.Stats().EdgesOut.Load() }},
		{"Discarded", func(e *core.Engine) int64 { return e.Stats().Discarded.Load() }},
		{"Matches", func(e *core.Engine) int64 { return e.Stats().Matches.Load() }},
		{"PartialIns", func(e *core.Engine) int64 { return e.Stats().PartialIns.Load() }},
		{"PartialDel", func(e *core.Engine) int64 { return e.Stats().PartialDel.Load() }},
		{"JoinScanned", func(e *core.Engine) int64 { return e.Stats().JoinScanned.Load() }},
		{"JoinCandidates", func(e *core.Engine) int64 { return e.Stats().JoinCandidates.Load() }},
		{"PartialMatchCount", (*core.Engine).PartialMatchCount},
	}
	for _, scheme := range []struct {
		name   string
		scheme core.LockScheme
	}{{"FineGrained", core.FineGrained}, {"AllLocks", core.AllLocks}} {
		t.Run(scheme.name, func(t *testing.T) {
			eng := core.New(q, core.Config{})
			par := core.NewParallel(eng, scheme.scheme, 4)
			runStream(t, edges, 150, par.Process)
			par.Wait()
			for _, c := range counters {
				if a, b := c.get(ser), c.get(eng); a != b {
					t.Errorf("%s: serial %d, parallel %d", c.name, a, b)
				}
			}
		})
	}
}

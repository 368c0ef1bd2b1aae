package timingsubg

import (
	"errors"
	"fmt"
	"testing"
)

// fleetSpecs builds a 3-query fleet over the shared a/b/c/d label
// alphabet of persistTestStream: a 3-edge chain, a 2-edge chain, and a
// single-edge pattern, so per-edge interest and match rates differ.
func fleetSpecs(t testing.TB, labels *Labels, window Timestamp) []QuerySpec {
	t.Helper()
	chain2 := func(x, y, z string) *Query {
		b := NewQueryBuilder()
		vx := b.AddVertex(labels.Intern(x))
		vy := b.AddVertex(labels.Intern(y))
		vz := b.AddVertex(labels.Intern(z))
		e1 := b.AddEdge(vx, vy)
		e2 := b.AddEdge(vy, vz)
		b.Before(e1, e2)
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	single := func(x, y string) *Query {
		b := NewQueryBuilder()
		vx := b.AddVertex(labels.Intern(x))
		vy := b.AddVertex(labels.Intern(y))
		b.AddEdge(vx, vy)
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	return []QuerySpec{
		{Name: "chain3", Query: persistTestQuery(t, labels), Options: Options{Window: window}},
		{Name: "chain2", Query: chain2("b", "c", "d"), Options: Options{Window: window}},
		{Name: "single", Query: single("d", "a"), Options: Options{Window: window}},
	}
}

// runFleetPlain is the non-durable reference: per-query match-key sets.
func runFleetPlain(t testing.TB, specs []QuerySpec, edges []Edge) map[string]map[string]bool {
	t.Helper()
	got := map[string]map[string]bool{}
	for _, spec := range specs {
		got[spec.Name] = map[string]bool{}
	}
	ms, err := Open(Config{Queries: specs, OnMatch: func(name string, m *Match) { got[name][matchKey(m)] = true }})
	if err != nil {
		t.Fatal(err)
	}
	feedEach(t, ms, edges)
	ms.Close()
	return got
}

// openDurableFleet opens a durable fleet of specs; onMatch may be nil.
func openDurableFleet(t testing.TB, specs []QuerySpec, dur Durability, onMatch func(string, *Match)) Fleet {
	t.Helper()
	fl, err := OpenFleet(Config{Queries: specs, Durable: &dur, OnMatch: onMatch})
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// matchCounts returns eng's per-query match totals.
func matchCounts(eng Engine) map[string]int64 {
	out := map[string]int64{}
	for name, qs := range eng.Stats().Queries {
		out[name] = qs.Matches
	}
	return out
}

func TestPersistentMultiColdStart(t *testing.T) {
	labels := NewLabels()
	specs := fleetSpecs(t, labels, 40)
	edges := persistTestStream(labels, 500, 71)
	want := runFleetPlain(t, specs, edges)

	got := map[string]map[string]bool{}
	for _, spec := range specs {
		got[spec.Name] = map[string]bool{}
	}
	pm := openDurableFleet(t, specs, Durability{Dir: t.TempDir()},
		func(name string, m *Match) { got[name][matchKey(m)] = true })
	feedEach(t, pm, edges)
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}

	total := 0
	for name, w := range want {
		total += len(w)
		if len(got[name]) != len(w) {
			t.Fatalf("query %s: durable %d matches, plain %d", name, len(got[name]), len(w))
		}
	}
	if total == 0 {
		t.Fatal("fleet found no matches; test stream too sparse")
	}
	counts := matchCounts(pm)
	for name, w := range want {
		if counts[name] != int64(len(w)) {
			t.Fatalf("query %s: Stats.Queries matches %d, want %d", name, counts[name], len(w))
		}
	}
}

// TestPersistentMultiCrashRecovery: crash the fleet at assorted points;
// distinct per-query match sets must equal the uninterrupted run.
func TestPersistentMultiCrashRecovery(t *testing.T) {
	labels := NewLabels()
	specs := fleetSpecs(t, labels, 40)
	const n = 400
	edges := persistTestStream(labels, n, 72)
	want := runFleetPlain(t, specs, edges)

	for _, cut := range []int{0, 55, 200, 399} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			got := map[string]map[string]bool{}
			for _, spec := range specs {
				got[spec.Name] = map[string]bool{}
			}
			onMatch := func(name string, m *Match) { got[name][matchKey(m)] = true }

			dur := Durability{Dir: dir, CheckpointEvery: 64}
			pm := openDurableFleet(t, specs, dur, onMatch)
			feedEach(t, pm, edges[:cut])
			pre := matchCounts(pm)
			crash(pm)

			pm2 := openDurableFleet(t, specs, dur, onMatch)
			post := matchCounts(pm2)
			for name, v := range pre {
				if post[name] != v {
					t.Fatalf("query %s: recovered count %d, want %d", name, post[name], v)
				}
			}
			feedEach(t, pm2, edges[cut:])
			if err := pm2.Close(); err != nil {
				t.Fatal(err)
			}

			for name, w := range want {
				if len(got[name]) != len(w) {
					t.Fatalf("query %s: %d distinct matches, want %d", name, len(got[name]), len(w))
				}
				for k := range w {
					if !got[name][k] {
						t.Fatalf("query %s: missing match %s", name, k)
					}
				}
			}
		})
	}
}

// TestPersistentMultiLateJoiner: a query added to an existing directory
// joins from the retained log horizon and sees subsequent traffic.
func TestPersistentMultiLateJoiner(t *testing.T) {
	labels := NewLabels()
	base := fleetSpecs(t, labels, 40)[:1] // chain3 only
	edges := persistTestStream(labels, 300, 73)
	dir := t.TempDir()

	dur := Durability{Dir: dir, CheckpointEvery: 50}
	pm := openDurableFleet(t, base, dur, nil)
	feedEach(t, pm, edges[:150])
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with an extra query.
	full := fleetSpecs(t, labels, 40)
	joinerMatches := 0
	pm2 := openDurableFleet(t, full, dur, func(name string, m *Match) {
		if name == "single" {
			joinerMatches++
		}
	})
	feedEach(t, pm2, edges[150:])
	if joinerMatches == 0 {
		t.Fatal("late joiner saw no matches")
	}
	if err := pm2.Close(); err != nil {
		t.Fatal(err)
	}

	// A third open must recover all three cleanly.
	pm3 := openDurableFleet(t, full, Durability{Dir: dir}, nil)
	if err := pm3.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentMultiRejectsBadSpecs(t *testing.T) {
	labels := NewLabels()
	ok := fleetSpecs(t, labels, 40)
	cases := []struct {
		name  string
		specs []QuerySpec
		dur   Durability
	}{
		{"no queries", nil, Durability{Dir: t.TempDir()}},
		{"no dir", ok, Durability{}},
		{"bad name", []QuerySpec{{Name: "a/b", Query: ok[0].Query, Options: Options{Window: 10}}}, Durability{Dir: t.TempDir()}},
		{"dup name", []QuerySpec{
			{Name: "x", Query: ok[0].Query, Options: Options{Window: 10}},
			{Name: "x", Query: ok[1].Query, Options: Options{Window: 10}},
		}, Durability{Dir: t.TempDir()}},
		{"count window", []QuerySpec{{Name: "x", Query: ok[0].Query, Options: Options{CountWindow: 10}}}, Durability{Dir: t.TempDir()}},
	}
	for _, tc := range cases {
		if _, err := Open(Config{Queries: tc.specs, Durable: &tc.dur}); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("%s: accepted: %v", tc.name, err)
		}
	}
}

// TestPersistentMultiSharedWALIsLoggedOnce: the log grows by one record
// per edge regardless of fleet size.
func TestPersistentMultiSharedWALIsLoggedOnce(t *testing.T) {
	labels := NewLabels()
	specs := fleetSpecs(t, labels, 40)
	pm := openDurableFleet(t, specs, Durability{Dir: t.TempDir()}, nil)
	feedEach(t, pm, persistTestStream(labels, 120, 74))
	if seq := pm.Stats().WALSeq; seq != 120 {
		t.Fatalf("WAL seq %d after 120 edges in a 3-query fleet, want 120", seq)
	}
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistentMultiReplayedCountsSuffix: a durable fleet's
// Stats.Replayed counts the WAL records recovery replays to some member
// — none after a clean Close, the post-checkpoint suffix after a crash
// — not the whole retained log.
func TestPersistentMultiReplayedCountsSuffix(t *testing.T) {
	labels := NewLabels()
	specs := fleetSpecs(t, labels, 40)
	edges := persistTestStream(labels, 400, 73)
	t.Run("clean-close", func(t *testing.T) {
		dur := Durability{Dir: t.TempDir()}
		pm := openDurableFleet(t, specs, dur, nil)
		feedEach(t, pm, edges)
		if err := pm.Close(); err != nil {
			t.Fatal(err)
		}
		pm2 := openDurableFleet(t, specs, dur, nil)
		defer pm2.Close()
		if st := pm2.Stats(); st.Replayed != 0 || st.WALSeq != 400 {
			t.Fatalf("Replayed=%d WALSeq=%d after clean Close, want 0/400", st.Replayed, st.WALSeq)
		}
	})
	t.Run("crash", func(t *testing.T) {
		dur := Durability{Dir: t.TempDir(), CheckpointEvery: 100}
		pm := openDurableFleet(t, specs, dur, nil)
		feedEach(t, pm, edges[:250]) // checkpoints at LSN 100 and 200
		crash(pm)
		pm2 := openDurableFleet(t, specs, dur, nil)
		defer pm2.Close()
		if st := pm2.Stats(); st.Replayed != 50 || st.WALSeq != 250 {
			t.Fatalf("Replayed=%d WALSeq=%d after crash, want 50/250", st.Replayed, st.WALSeq)
		}
	})
}

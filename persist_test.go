package timingsubg

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"timingsubg/internal/checkpoint"
)

// persistTestQuery builds a small 3-edge TC query over labels a,b,c,d:
// a→b (ε1), b→c (ε2), c→d (ε3) with ε1 ≺ ε2 ≺ ε3.
func persistTestQuery(t testing.TB, labels *Labels) *Query {
	t.Helper()
	b := NewQueryBuilder()
	va := b.AddVertex(labels.Intern("a"))
	vb := b.AddVertex(labels.Intern("b"))
	vc := b.AddVertex(labels.Intern("c"))
	vd := b.AddVertex(labels.Intern("d"))
	e1 := b.AddEdge(va, vb)
	e2 := b.AddEdge(vb, vc)
	e3 := b.AddEdge(vc, vd)
	b.Before(e1, e2)
	b.Before(e2, e3)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// persistTestStream generates a deterministic random stream that
// produces a healthy mix of matches, partial matches, and discardable
// edges for the 3-edge chain query.
func persistTestStream(labels *Labels, n int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	lab := []Label{labels.Intern("a"), labels.Intern("b"), labels.Intern("c"), labels.Intern("d")}
	// Each vertex has a fixed label determined by its ID (paper model:
	// vertex labels are properties of the vertex).
	labelOf := func(v VertexID) Label { return lab[int(v)%4] }
	var out []Edge
	for i := 0; i < n; i++ {
		from := VertexID(rng.Intn(12))
		to := VertexID(rng.Intn(12))
		if to == from {
			to = (to + 1) % 12
		}
		out = append(out, Edge{
			From:      from,
			To:        to,
			FromLabel: labelOf(from),
			ToLabel:   labelOf(to),
			Time:      Timestamp(i + 1),
		})
	}
	return out
}

// matchKey canonically identifies a match by its sorted edge-ID set.
func matchKey(m *Match) string {
	ids := make([]int64, 0, 8)
	for _, e := range m.Edges {
		ids = append(ids, int64(e.ID))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return fmt.Sprint(ids)
}

// runPlain runs a non-durable engine over edges and returns the set of
// reported match keys.
func runPlain(t testing.TB, q *Query, window Timestamp, edges []Edge) map[string]bool {
	t.Helper()
	got := map[string]bool{}
	s, err := Open(Config{Query: q, Window: window, OnMatch: func(_ string, m *Match) { got[matchKey(m)] = true }})
	if err != nil {
		t.Fatal(err)
	}
	feedEach(t, s, edges)
	s.Close()
	return got
}

// openDurable opens a durable single-query engine in dir; onMatch may
// be nil. The concrete type gives tests the forced checkpoint
// (fl.Checkpoint) and the live WAL (fl.log).
func openDurable(t testing.TB, q *Query, window Timestamp, dur Durability, onMatch func(*Match)) *solo {
	t.Helper()
	cfg := Config{Query: q, Window: window, Durable: &dur}
	if onMatch != nil {
		cfg.OnMatch = func(_ string, m *Match) { onMatch(m) }
	}
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng.(*solo)
}

// crash abandons a durable engine without Close — no final checkpoint.
// Only the WAL handle is released: this process wrote the log, so its
// OS-buffered bytes are visible to the reopened one.
func crash(eng Engine) {
	switch e := eng.(type) {
	case *solo:
		e.fl.log.Close()
	case *fleetEngine:
		e.log.Close()
	}
}

func TestPersistentColdStartMatchesPlain(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 400, 1)
	want := runPlain(t, q, 50, edges)
	if len(want) == 0 {
		t.Fatal("reference run found no matches; test stream too sparse")
	}

	got := map[string]bool{}
	ps := openDurable(t, q, 50, Durability{Dir: t.TempDir()}, func(m *Match) { got[matchKey(m)] = true })
	feedEach(t, ps, edges)
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("persistent found %d matches, plain found %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing match %s", k)
		}
	}
}

// TestCrashRecoveryEquivalence is the central durability property: for
// random crash points, (run prefix; crash; recover; run suffix) reports
// the same total match set as one uninterrupted run, and never
// re-reports a checkpointed match.
func TestCrashRecoveryEquivalence(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	const n = 300
	edges := persistTestStream(labels, n, 2)
	want := runPlain(t, q, 40, edges)

	for _, cut := range []int{0, 1, 37, 150, 299, 300} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			got := map[string]bool{}
			dups := 0
			onMatch := func(m *Match) {
				k := matchKey(m)
				if got[k] {
					dups++
				}
				got[k] = true
			}

			dur := Durability{Dir: dir, CheckpointEvery: 64}
			ps := openDurable(t, q, 40, dur, onMatch)
			feedEach(t, ps, edges[:cut])
			preCrash := ps.Stats().Matches
			crash(ps)

			ps2 := openDurable(t, q, 40, dur, onMatch)
			if got := ps2.Stats().Matches; got != preCrash {
				t.Fatalf("recovered Matches %d, want %d", got, preCrash)
			}
			feedEach(t, ps2, edges[cut:])
			if err := ps2.Close(); err != nil {
				t.Fatal(err)
			}

			if len(got) != len(want) {
				t.Fatalf("crash at %d: got %d distinct matches, want %d", cut, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("crash at %d: missing match %s", cut, k)
				}
			}
			// Matches inside a checkpoint must not be re-reported; only
			// the replayed suffix may duplicate.
			if replayed := ps2.Stats().Replayed; int64(dups) > replayed {
				t.Fatalf("crash at %d: %d duplicate reports exceed %d replayed edges", cut, dups, replayed)
			}
		})
	}
}

// TestRecoveryRepeatedRestarts opens/feeds/closes the same directory
// several times; counters and match totals must accumulate across runs
// exactly as an uninterrupted run would produce.
func TestRecoveryRepeatedRestarts(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	const n = 400
	edges := persistTestStream(labels, n, 3)
	want := runPlain(t, q, 60, edges)

	dir := t.TempDir()
	got := map[string]bool{}
	chunk := n / 5
	var final int64
	for run := 0; run < 5; run++ {
		ps := openDurable(t, q, 60, Durability{Dir: dir, CheckpointEvery: 50},
			func(m *Match) { got[matchKey(m)] = true })
		feedEach(t, ps, edges[run*chunk:(run+1)*chunk])
		final = ps.Stats().Matches
		if err := ps.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d distinct matches, want %d", len(got), len(want))
	}
	if final != int64(len(want)) {
		t.Fatalf("durable Matches %d, want %d", final, len(want))
	}
}

func TestPersistentRejectsBadOptions(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	cases := []Config{
		{Window: 10, Durable: &Durability{}},                // no dir
		{Window: 0, Durable: &Durability{Dir: t.TempDir()}}, // no window
	}
	for i, cfg := range cases {
		cfg.Query = q
		if _, err := Open(cfg); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("case %d: bad options accepted: %v", i, err)
		}
	}
}

func TestPersistentWindowMismatchRejected(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	dir := t.TempDir()
	ps := openDurable(t, q, 10, Durability{Dir: dir}, nil)
	feedEach(t, ps, persistTestStream(labels, 20, 4))
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Config{Query: q, Window: 20, Durable: &Durability{Dir: dir}})
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("window mismatch accepted: %v", err)
	}
	// The unnamed query of a single engine is not named in the error.
	if want := "timingsubg: checkpoint window 10 != configured window 20: timingsubg: invalid options"; err.Error() != want {
		t.Fatalf("window mismatch error = %q, want %q", err, want)
	}
}

// TestRecoveryWithLostWALTail simulates fsync-disabled data loss: the
// checkpoint is ahead of a truncated WAL. Recovery must still come up
// consistently at the checkpoint cursor and accept new edges.
func TestRecoveryWithLostWALTail(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 200, 5)
	dir := t.TempDir()

	dur := Durability{Dir: dir, CheckpointEvery: 64}
	ps := openDurable(t, q, 40, dur, nil)
	feedEach(t, ps, edges)
	// Force a checkpoint, then chop the WAL back hard (lose everything
	// after the last full segment header — simulate lost tail).
	if err := ps.fl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(ps)
	// Remove all WAL segments entirely: the checkpoint alone must carry
	// recovery.
	matches, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	for _, m := range matches {
		os.Remove(m)
	}

	ps2, err := Open(Config{Query: q, Window: 40, Durable: &dur})
	if err != nil {
		t.Fatalf("recovery with lost WAL: %v", err)
	}
	if ps2.Stats().InWindow == 0 {
		t.Fatal("recovered window is empty")
	}
	// Feeding must continue with aligned IDs.
	next := edges[len(edges)-1]
	next.Time++
	id, err := ps2.Feed(next)
	if err != nil {
		t.Fatal(err)
	}
	if int64(id) != 200 {
		t.Fatalf("post-recovery edge ID %d, want 200", id)
	}
	if err := ps2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentStateAccessors(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	dir := t.TempDir()
	// A synchronous OnMatch runs inside the feed: the single-engine
	// readers must not wait for the feed to finish.
	var ps *solo
	inMatch := 0
	ps = openDurable(t, q, 30, Durability{Dir: dir}, func(*Match) {
		if ps.Stats().Matches == 0 {
			t.Error("Stats inside OnMatch saw no match")
		}
		ps.CurrentMatches(func(*Match) bool { return false })
		inMatch++
	})
	feedEach(t, ps, persistTestStream(labels, 100, 6))
	if inMatch == 0 {
		t.Fatal("no match delivered; test stream too sparse")
	}
	st := ps.Stats()
	if !st.Durable || st.WALSeq != 100 {
		t.Fatalf("Durable=%v WALSeq=%d, want true/100", st.Durable, st.WALSeq)
	}
	if st.Fleet || st.Queries != nil {
		t.Fatalf("Fleet=%v Queries=%v, want false/nil", st.Fleet, st.Queries)
	}
	if st.InWindow == 0 {
		t.Fatal("InWindow = 0")
	}
	if st.SpaceBytes < 0 {
		t.Fatal("negative space")
	}
	if st.PartialMatches < 0 {
		t.Fatal("negative partials")
	}
	n := 0
	ps.CurrentMatches(func(*Match) bool { n++; return true })
	if want := ps.m.eng.CurrentMatchCount(); n != want {
		t.Fatalf("CurrentMatches enumerated %d, core counts %d", n, want)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Feed(Edge{Time: 1000}); !errors.Is(err, ErrClosed) {
		t.Fatalf("feed after close: %v, want ErrClosed", err)
	}
	// A single engine checkpoints directly under Dir, never under Dir/ck.
	if _, ok, err := checkpoint.Load(dir); !ok || err != nil {
		t.Fatalf("no checkpoint directly under Dir: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ck")); !os.IsNotExist(err) {
		t.Fatalf("single engine created Dir/ck: %v", err)
	}
}

package timingsubg

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"timingsubg/internal/graph"
)

// The conformance suite: every option combination Open can express is
// driven through the same scripted stream and must report the same
// counters as the plain single-query engine — composition changes
// capabilities and performance, never results. This includes
// adaptive+durable, and adaptive members inside a (durable) fleet.

// confSnap is the result-determining slice of a Stats snapshot. Fields
// like Fed, WALSeq or Replayed legitimately differ across compositions;
// these three must not.
type confSnap struct {
	Matches   int64
	Discarded int64
	InWindow  int
}

func snap(st Stats) confSnap {
	return confSnap{Matches: st.Matches, Discarded: st.Discarded, InWindow: st.InWindow}
}

// feedEach drives edges one Feed at a time.
func feedEach(t testing.TB, eng Engine, edges []Edge) {
	t.Helper()
	for i, e := range edges {
		if _, err := eng.Feed(e); err != nil {
			t.Fatalf("feed edge %d: %v", i, err)
		}
	}
}

// feedChunks drives edges through FeedBatch in uneven chunks.
func feedChunks(t testing.TB, eng Engine, edges []Edge, chunk int) {
	t.Helper()
	for off := 0; off < len(edges); off += chunk {
		end := off + chunk
		if end > len(edges) {
			end = len(edges)
		}
		n, err := eng.FeedBatch(edges[off:end])
		if err != nil {
			t.Fatalf("feed batch at %d: %v", off, err)
		}
		if n != end-off {
			t.Fatalf("feed batch at %d: fed %d of %d", off, n, end-off)
		}
	}
}

// feedWithStale drives edges through feed in two halves and, between
// them, offers stale edges — one no query's labels match (a routed fleet
// routes it to nobody), one a replay of an edge every member has seen —
// through both Feed and FeedBatch. Every composition must reject them
// at the ingest boundary with ErrOutOfOrder and touch nothing; the
// caller's end-of-stream assertions then prove no member applied one.
func feedWithStale(t *testing.T, eng Engine, edges []Edge, feed func(testing.TB, Engine, []Edge)) {
	t.Helper()
	mid := len(edges) / 2
	feed(t, eng, edges[:mid])
	// Nothing is in flight once a feed returns, so the full snapshot is
	// safe to read here.
	before := eng.Stats()
	unrouted := Edge{From: 1, To: 2, FromLabel: Label(1 << 20), ToLabel: Label(1<<20 + 1), Time: edges[mid/2].Time}
	for _, stale := range []Edge{unrouted, edges[mid/2]} {
		if _, err := eng.Feed(stale); !errors.Is(err, ErrOutOfOrder) {
			t.Fatalf("Feed(stale @%d) = %v, want ErrOutOfOrder", stale.Time, err)
		}
		if n, err := eng.FeedBatch([]Edge{stale}); n != 0 || !errors.Is(err, ErrOutOfOrder) {
			t.Fatalf("FeedBatch(stale @%d) = (%d, %v), want (0, ErrOutOfOrder)", stale.Time, n, err)
		}
	}
	after := eng.Stats()
	if after.Fed != before.Fed || after.InWindow != before.InWindow || after.WALSeq != before.WALSeq {
		t.Fatalf("rejected edges left a trace: fed %d→%d, in-window %d→%d, WAL %d→%d",
			before.Fed, after.Fed, before.InWindow, after.InWindow, before.WALSeq, after.WALSeq)
	}
	feed(t, eng, edges[mid:])
}

func TestConformanceSingleCombinations(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 2500, 91)
	const window = 60

	open := func(t *testing.T, cfg Config) Engine {
		t.Helper()
		cfg.Query, cfg.Window = q, window
		eng, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	base := open(t, Config{})
	feedEach(t, base, edges)
	base.Close()
	want := snap(base.Stats())
	if want.Matches == 0 || want.Discarded == 0 {
		t.Fatalf("degenerate baseline: %+v", want)
	}

	cases := []struct {
		name  string
		cfg   Config
		batch int // 0 = per-edge Feed
	}{
		{name: "feedbatch", batch: 97},
		{name: "independent-storage", cfg: Config{Storage: Independent}},
		{name: "adaptive", cfg: Config{Adaptive: &Adaptivity{ReoptimizeEvery: 128, MinGain: 1.05}}},
		{name: "durable", cfg: Config{Durable: &Durability{CheckpointEvery: 300}}},
		{name: "durable-batch", cfg: Config{Durable: &Durability{CheckpointEvery: 300}}, batch: 113},
		{name: "adaptive-durable", cfg: Config{
			Adaptive: &Adaptivity{ReoptimizeEvery: 128, MinGain: 1.05},
			Durable:  &Durability{CheckpointEvery: 300},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.Durable != nil {
				tc.cfg.Durable.Dir = t.TempDir()
			}
			eng := open(t, tc.cfg)
			feed := feedEach
			if tc.batch > 0 {
				feed = func(t testing.TB, eng Engine, edges []Edge) { feedChunks(t, eng, edges, tc.batch) }
			}
			feedWithStale(t, eng, edges, feed)
			eng.Close()
			if got := snap(eng.Stats()); got != want {
				t.Fatalf("stats diverge from plain engine: got %+v, want %+v", got, want)
			}
		})
	}
}

func TestConformanceCountWindow(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 1500, 17)

	base, err := Open(Config{Query: q, CountWindow: 64})
	if err != nil {
		t.Fatal(err)
	}
	feedEach(t, base, edges)
	base.Close()
	want := snap(base.Stats())
	if want.Matches == 0 {
		t.Fatalf("degenerate count-window baseline: %+v", want)
	}

	batch, err := Open(Config{Query: q, CountWindow: 64})
	if err != nil {
		t.Fatal(err)
	}
	feedChunks(t, batch, edges, 89)
	batch.Close()
	if got := snap(batch.Stats()); got != want {
		t.Fatalf("count-window batch diverges: got %+v, want %+v", got, want)
	}

	// Count-window fleet members: each member must equal the standalone
	// count-window engine, with sequential and sharded execution alike
	// (count windows measure fed edges, so the shard fan-out must feed
	// every member exactly once per edge).
	for _, workers := range []int{1, 4} {
		fl, err := OpenFleet(Config{
			Queries:      []QuerySpec{{Name: "q1", Query: q}, {Name: "q2", Query: q}},
			CountWindow:  64,
			FleetWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		feedEach(t, fl, edges)
		fl.Close()
		for name, qs := range fl.Stats().Queries {
			if got := snap(qs); got != want {
				t.Fatalf("count-window fleet member %s (workers=%d) diverges: got %+v, want %+v", name, workers, got, want)
			}
		}
	}
}

// TestConformanceAdaptiveDurable proves the previously-impossible
// adaptive+durable composition end to end: the join order demonstrably
// adapts, a crash loses nothing, and the durable total equals the plain
// uninterrupted run.
func TestConformanceAdaptiveDurable(t *testing.T) {
	q := starQuery(t)
	edges := skewedStream(1600, 5, 0)
	edges = append(edges, skewedStreamFrom(1600, 1600, 6, 2)...)
	const window = 300

	base, err := Open(Config{Query: q, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	feedEach(t, base, edges)
	base.Close()
	want := snap(base.Stats())
	if want.Matches == 0 {
		t.Fatal("degenerate baseline: no matches")
	}

	adapt := &Adaptivity{ReoptimizeEvery: 150, MinGain: 1.05}
	dir := t.TempDir()
	cfg := Config{Query: q, Window: window, Adaptive: adapt,
		Durable: &Durability{Dir: dir, CheckpointEvery: 500}}

	// Run 1: feed 60% of the stream, then crash (no Close).
	eng1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(edges) * 6 / 10
	feedEach(t, eng1, edges[:cut])
	if eng1.Stats().Reoptimizations == 0 {
		t.Fatal("adaptive+durable engine never reoptimized — combination not exercised")
	}
	// Abandon without Close: recovery must rebuild from WAL+checkpoint.

	eng2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := eng2.Stats()
	if st.Matches != eng1.Stats().Matches {
		t.Fatalf("recovered matches %d != pre-crash %d", st.Matches, eng1.Stats().Matches)
	}
	feedEach(t, eng2, edges[cut:])
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := snap(eng2.Stats()); got != want {
		t.Fatalf("adaptive+durable across crash diverges: got %+v, want %+v", got, want)
	}
}

// skewedStreamFrom is skewedStream with a timestamp offset, for
// multi-phase streams.
func skewedStreamFrom(start, n int, seed int64, hot int) []Edge {
	out := skewedStream(n, seed, hot)
	for i := range out {
		out[i].Time += Timestamp(start)
	}
	return out
}

// streamMatchKey canonically identifies a match by the stream content
// of its bound edges. Unlike edge IDs — which are per-engine arrival
// indices in routed mode and WAL sequence numbers in durable mode — the
// ⟨from, to, time⟩ triple of an edge is invariant across every fleet
// composition, so match *sets* are comparable between any two engines
// fed the same stream.
func streamMatchKey(m *Match) string {
	var b strings.Builder
	for _, e := range m.Edges {
		fmt.Fprintf(&b, "%d>%d@%d;", e.From, e.To, e.Time)
	}
	return b.String()
}

// matchSetCollector accumulates per-query match multisets. It locks
// because a sharded fleet delivers matches from concurrent shard
// workers (serialized per query engine, not across them).
type matchSetCollector struct {
	mu   sync.Mutex
	sets map[string]map[string]int
}

func newMatchSetCollector() *matchSetCollector {
	return &matchSetCollector{sets: make(map[string]map[string]int)}
}

func (c *matchSetCollector) add(name string, m *Match) {
	key := streamMatchKey(m)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sets[name] == nil {
		c.sets[name] = make(map[string]int)
	}
	c.sets[name][key]++
}

func (c *matchSetCollector) get(name string) map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sets[name]
}

func sameMatchSet(got, want map[string]int) bool {
	if len(got) != len(want) {
		return false
	}
	for k, n := range want {
		if got[k] != n {
			return false
		}
	}
	return true
}

// TestConformanceFleetCombinations drives every fleet composition —
// broadcast/routed, dynamic roster, durable, adaptive members, with
// sequential and sharded execution (FleetWorkers 1 vs 4) — through the
// same scripted stream and asserts each member reports the *identical
// per-query match set* (not just equal counts) and the same stats
// totals as the standalone engine. Sharding changes performance, never
// results.
func TestConformanceFleetCombinations(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	star := starQuery(t)
	edges := persistTestStream(labels, 2000, 33)
	const window = 80

	// Standalone baselines, one per member query, over the same stream.
	baseCollector := newMatchSetCollector()
	baseline := func(t *testing.T, name string, q *Query) confSnap {
		t.Helper()
		eng, err := Open(Config{Query: q, Window: window,
			OnMatch: func(_ string, m *Match) { baseCollector.add(name, m) }})
		if err != nil {
			t.Fatal(err)
		}
		feedEach(t, eng, edges)
		eng.Close()
		return snap(eng.Stats())
	}
	wantChain := baseline(t, "chain", q)
	wantStar := baseline(t, "star", star)
	if wantChain.Matches == 0 {
		t.Fatalf("degenerate chain baseline: %+v", wantChain)
	}

	specs := []QuerySpec{
		{Name: "chain", Query: q},
		{Name: "star", Query: star},
	}
	adapt := &Adaptivity{ReoptimizeEvery: 100, MinGain: 1.05}

	cases := []struct {
		name    string
		cfg     Config
		routed  bool // routed members may hold fewer edges in-window
		dynamic bool // register the specs via AddQuery before feeding
		batch   int  // 0 = per-edge Feed
	}{
		{name: "broadcast", cfg: Config{Queries: specs, Window: window}},
		{name: "broadcast-batch", cfg: Config{Queries: specs, Window: window}, batch: 101},
		{name: "routed", cfg: Config{Queries: specs, Window: window, Routed: true}, routed: true},
		{name: "routed-batch", cfg: Config{Queries: specs, Window: window, Routed: true}, routed: true, batch: 89},
		{name: "dynamic", cfg: Config{Dynamic: true, Window: window}, dynamic: true, batch: 97},
		{name: "adaptive-members", cfg: Config{Queries: specs, Window: window, Adaptive: adapt}},
		{name: "durable", cfg: Config{Queries: specs, Window: window, Durable: &Durability{CheckpointEvery: 300}}},
		{name: "durable-batch", cfg: Config{Queries: specs, Window: window, Durable: &Durability{CheckpointEvery: 300}}, batch: 113},
		{name: "durable-adaptive-members", cfg: Config{
			Queries: specs, Window: window, Adaptive: adapt,
			Durable: &Durability{CheckpointEvery: 300},
		}},
		{name: "spec-level-adaptive", cfg: Config{
			Queries: []QuerySpec{
				{Name: "chain", Query: q},
				{Name: "star", Query: star, Adaptive: adapt},
			},
			Window: window,
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers-%d", tc.name, workers), func(t *testing.T) {
				cfg := tc.cfg
				cfg.FleetWorkers = workers
				if cfg.Durable != nil {
					d := *cfg.Durable
					d.Dir = t.TempDir()
					cfg.Durable = &d
				}
				got := newMatchSetCollector()
				cfg.OnMatch = got.add
				fl, err := OpenFleet(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if tc.dynamic {
					for _, spec := range specs {
						if err := fl.AddQuery(spec); err != nil {
							t.Fatal(err)
						}
					}
				}
				feed := feedEach
				if tc.batch > 0 {
					feed = func(t testing.TB, eng Engine, edges []Edge) { feedChunks(t, eng, edges, tc.batch) }
				}
				feedWithStale(t, fl, edges, feed)
				fl.Close()
				st := fl.Stats()
				if workers > 1 {
					if st.FleetWorkers != workers || len(st.ShardMembers) != workers {
						t.Fatalf("sharded stats missing shard section: workers=%d shards=%v",
							st.FleetWorkers, st.ShardMembers)
					}
				}
				var memberSum int64
				for name, want := range map[string]confSnap{"chain": wantChain, "star": wantStar} {
					gotSnap := snap(st.Queries[name])
					memberSum += gotSnap.Matches
					if tc.routed {
						// A routed member sees only compatible edges: its
						// window holds a subset and edges the full engine
						// would count as discardable are filtered before it.
						// The result set — Matches — must still agree.
						gotSnap.InWindow, gotSnap.Discarded = want.InWindow, want.Discarded
					}
					if gotSnap != want {
						t.Fatalf("fleet member %s diverges: got %+v, want %+v", name, gotSnap, want)
					}
					if !sameMatchSet(got.get(name), baseCollector.get(name)) {
						t.Fatalf("fleet member %s match set diverges from standalone engine (%d vs %d distinct matches)",
							name, len(got.get(name)), len(baseCollector.get(name)))
					}
				}
				if st.Matches != memberSum {
					t.Fatalf("fleet aggregate %d != member sum %d", st.Matches, memberSum)
				}
			})
		}
	}
}

// TestConformanceAdaptiveInFleet pins the second previously-impossible
// combination with a stream that demonstrably triggers reoptimization
// inside a fleet member, then checks the member against the standalone
// adaptive and plain engines.
func TestConformanceAdaptiveInFleet(t *testing.T) {
	star := starQuery(t)
	edges := skewedStream(1500, 21, 0)
	edges = append(edges, skewedStreamFrom(1500, 1500, 22, 2)...)
	const window = 250

	plain, err := Open(Config{Query: star, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	feedEach(t, plain, edges)
	plain.Close()
	want := snap(plain.Stats())

	adapt := &Adaptivity{ReoptimizeEvery: 120, MinGain: 1.05}
	fl, err := OpenFleet(Config{
		Queries: []QuerySpec{{Name: "star", Query: star, Adaptive: adapt}},
		Window:  window,
	})
	if err != nil {
		t.Fatal(err)
	}
	feedEach(t, fl, edges)
	fl.Close()
	st := fl.Stats()
	if st.Queries["star"].Reoptimizations == 0 {
		t.Fatal("fleet member never reoptimized — adaptive-in-fleet not exercised")
	}
	if got := snap(st.Queries["star"]); got != want {
		t.Fatalf("adaptive fleet member diverges: got %+v, want %+v", got, want)
	}
}

// TestFleetStatsConcurrentWithAdaptiveFeed exercises the fleet
// contract that read accessors may run concurrently with Feed, in the
// presence of an adaptive member whose engine rebuilds mid-stream (the
// dispatch lock upgrades to exclusive for that). Run under -race.
func TestFleetStatsConcurrentWithAdaptiveFeed(t *testing.T) {
	run := func(t *testing.T, durable bool) {
		star := starQuery(t)
		edges := skewedStream(1200, 9, 0)
		edges = append(edges, skewedStreamFrom(1200, 1200, 10, 2)...)
		cfg := Config{
			Queries: []QuerySpec{{Name: "star", Query: star}},
			Window:  200,
			Adaptive: &Adaptivity{
				ReoptimizeEvery: 100,
				MinGain:         1.05,
			},
		}
		if durable {
			cfg.Durable = &Durability{Dir: t.TempDir(), CheckpointEvery: 300}
		}
		fl, err := OpenFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = fl.Stats()
					_ = fl.Names()
					_ = fl.HasQuery("star")
				}
			}
		}()
		feedEach(t, fl, edges)
		close(stop)
		wg.Wait()
		if fl.Stats().Queries["star"].Reoptimizations == 0 {
			t.Fatal("no rebuild happened — test exercises nothing")
		}
		fl.Close()
	}
	t.Run("in-memory", func(t *testing.T) { run(t, false) })
	t.Run("durable", func(t *testing.T) { run(t, true) })
}

// TestRunWrapsErrorsIdentically pins the shared Run loop contract:
// every engine shape wraps a feed error with the offending edge's
// stream index the same way.
func TestRunWrapsErrorsIdentically(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	badStream := func() chan Edge {
		ch := make(chan Edge, 2)
		ch <- Edge{From: 0, To: 1, FromLabel: labels.Intern("a"), ToLabel: labels.Intern("b"), Time: 5}
		ch <- Edge{From: 1, To: 2, FromLabel: labels.Intern("b"), ToLabel: labels.Intern("c"), Time: 5} // out of order
		close(ch)
		return ch
	}
	check := func(t *testing.T, n int64, err error) {
		t.Helper()
		if n != 1 {
			t.Fatalf("processed %d edges, want 1", n)
		}
		if !errors.Is(err, graph.ErrOutOfOrder) {
			t.Fatalf("err = %v, want ErrOutOfOrder", err)
		}
		if want := "timingsubg: edge 1: "; err == nil || len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
			t.Fatalf("err %q does not wrap the edge index like %q", err, want)
		}
	}
	t.Run("engine", func(t *testing.T) {
		eng, err := Open(Config{Query: q, Window: 10})
		if err != nil {
			t.Fatal(err)
		}
		n, err := eng.Run(t.Context(), badStream())
		check(t, n, err)
	})
	t.Run("fleet", func(t *testing.T) {
		fl, err := OpenFleet(Config{Queries: []QuerySpec{{Name: "q", Query: q}}, Window: 10})
		if err != nil {
			t.Fatal(err)
		}
		n, err := fl.Run(t.Context(), badStream())
		check(t, n, err)
	})
}

func TestFeedBatchStopsAtBadEdge(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 20, 3)
	edges[10].Time = edges[9].Time // out of order mid-batch

	eng, err := Open(Config{Query: q, Window: 50})
	if err != nil {
		t.Fatal(err)
	}
	n, err := eng.FeedBatch(edges)
	if n != 10 {
		t.Fatalf("fed %d edges before the bad one, want 10", n)
	}
	if !errors.Is(err, graph.ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
	// The engine stays usable past the bad edge.
	if _, err := eng.FeedBatch(edges[11:]); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Fed; got != 19 {
		t.Fatalf("fed total %d, want 19", got)
	}
}

// TestFeedBatchCannotPoisonWAL checks the durable batch path validates
// timestamps before logging: after rejecting a bad edge, a reopen of
// the directory must succeed (a poisoned log would fail recovery).
func TestFeedBatchCannotPoisonWAL(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 30, 4)
	edges[20].Time = edges[19].Time

	dir := t.TempDir()
	cfg := Config{Query: q, Window: 50, Durable: &Durability{Dir: dir}}
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := eng.FeedBatch(edges)
	if n != 20 || !errors.Is(err, graph.ErrOutOfOrder) {
		t.Fatalf("FeedBatch = (%d, %v), want (20, ErrOutOfOrder)", n, err)
	}
	// Same for the single-edge durable path (previously the bad edge hit
	// the WAL first and recovery would fail).
	if _, err := eng.Feed(edges[20]); !errors.Is(err, graph.ErrOutOfOrder) {
		t.Fatalf("Feed = %v, want ErrOutOfOrder", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen after rejected batch: %v", err)
	}
	if got := eng2.Stats().WALSeq; got != 20 {
		t.Fatalf("WALSeq = %d, want 20 (only valid edges logged)", got)
	}
	eng2.Close()
}

// TestFeedAndFeedBatchLogIdenticalBytes pins that the log stage has one
// write path: per-edge Feed (a batch of one) and chunked FeedBatch of
// the same stream leave byte-identical WAL segments, rotation points
// included.
func TestFeedAndFeedBatchLogIdenticalBytes(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 1500, 8)

	segments := func(t *testing.T, fleet bool, batch int) map[string]string {
		t.Helper()
		dir := t.TempDir()
		cfg := Config{Window: 50, Durable: &Durability{
			Dir: dir, SyncEvery: 0, SegmentBytes: 4096, CheckpointEvery: 1 << 20,
		}}
		if fleet {
			cfg.Queries = []QuerySpec{{Name: "q", Query: q}}
		} else {
			cfg.Query = q
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
		// Read before Close: its final checkpoint reclaims the segments.
		paths, err := filepath.Glob(filepath.Join(dir, "wal-*"))
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(paths))
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(p)] = string(b)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, fleet := range []bool{false, true} {
		t.Run(map[bool]string{false: "single", true: "fleet"}[fleet], func(t *testing.T) {
			perEdge, batched := segments(t, fleet, 0), segments(t, fleet, 173)
			if len(perEdge) < 3 {
				t.Fatalf("only %d segments — rotation not exercised", len(perEdge))
			}
			if len(perEdge) != len(batched) {
				t.Fatalf("per-edge Feed left %d segments, FeedBatch %d", len(perEdge), len(batched))
			}
			for name, want := range perEdge {
				if got, ok := batched[name]; !ok || got != want {
					t.Fatalf("segment %s differs between per-edge Feed and FeedBatch (present=%v, %d vs %d bytes)",
						name, ok, len(got), len(want))
				}
			}
		})
	}
}

func TestErrClosed(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	e := Edge{From: 0, To: 1, FromLabel: labels.Intern("a"), ToLabel: labels.Intern("b"), Time: 1}

	t.Run("single", func(t *testing.T) {
		eng, err := Open(Config{Query: q, Window: 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if _, err := eng.Feed(e); !errors.Is(err, ErrClosed) {
			t.Fatalf("Feed after Close = %v, want ErrClosed", err)
		}
		if _, err := eng.FeedBatch([]Edge{e}); !errors.Is(err, ErrClosed) {
			t.Fatalf("FeedBatch after Close = %v, want ErrClosed", err)
		}
	})
	t.Run("durable", func(t *testing.T) {
		eng, err := Open(Config{Query: q, Window: 10, Durable: &Durability{Dir: t.TempDir()}})
		if err != nil {
			t.Fatal(err)
		}
		eng.Close()
		if _, err := eng.Feed(e); !errors.Is(err, ErrClosed) {
			t.Fatalf("Feed after Close = %v, want ErrClosed", err)
		}
	})
	t.Run("fleet", func(t *testing.T) {
		fl, err := OpenFleet(Config{Queries: []QuerySpec{{Name: "q", Query: q}}, Window: 10})
		if err != nil {
			t.Fatal(err)
		}
		fl.Close()
		if _, err := fl.Feed(e); !errors.Is(err, ErrClosed) {
			t.Fatalf("Feed after Close = %v, want ErrClosed", err)
		}
		if _, err := fl.FeedBatch([]Edge{e}); !errors.Is(err, ErrClosed) {
			t.Fatalf("FeedBatch after Close = %v, want ErrClosed", err)
		}
		if err := fl.AddQuery(QuerySpec{Name: "late", Query: q}); !errors.Is(err, ErrClosed) {
			t.Fatalf("AddQuery after Close = %v, want ErrClosed", err)
		}
	})
}

func TestOpenValidation(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	spec := QuerySpec{Name: "q", Query: q}
	// msg, when set, pins the whole error text: a single-query engine is
	// a fleet of one, but its rejections name no query.
	cases := []struct {
		name string
		cfg  Config
		msg  string
	}{
		{"no-query", Config{Window: 10}, "timingsubg: invalid options\none of Query and Queries/Dynamic must be set"},
		{"query-and-queries", Config{Query: q, Queries: []QuerySpec{spec}, Window: 10}, ""},
		{"query-and-dynamic", Config{Query: q, Dynamic: true, Window: 10}, ""},
		{"both-windows", Config{Query: q, Window: 10, CountWindow: 10}, "timingsubg: invalid options\nset only one of Window and CountWindow"},
		{"no-window", Config{Query: q}, "timingsubg: invalid options\none of Window and CountWindow must be positive"},
		{"durable-no-dir", Config{Query: q, Window: 10, Durable: &Durability{}}, "timingsubg: invalid options\npersistent mode requires Dir"},
		{"durable-count-window", Config{Query: q, CountWindow: 10, Durable: &Durability{Dir: "x"}},
			"timingsubg: invalid options\npersistent mode supports time-based windows only"},
		{"routed-count-window", Config{Queries: []QuerySpec{spec}, CountWindow: 10, Routed: true}, ""},
		{"routed-durable", Config{Queries: []QuerySpec{spec}, Window: 10, Routed: true, Durable: &Durability{Dir: "x"}}, ""},
		// Fleet members go through the same validation.
		{"member-durable-count-window", Config{Queries: []QuerySpec{spec}, CountWindow: 10, Durable: &Durability{Dir: "x"}}, ""},
		{"durable-fleet-no-dir", Config{Dynamic: true, Window: 10, Durable: &Durability{}}, ""},
		{"routed-single", Config{Query: q, Window: 10, Routed: true}, "timingsubg: invalid options\nRouted is a fleet option (set Queries or Dynamic)"},
		{"fleetworkers-single", Config{Query: q, Window: 10, FleetWorkers: 4},
			"timingsubg: invalid options\nFleetWorkers is a fleet option (set Queries or Dynamic)"},
		{"fleetworkers-negative", Config{Queries: []QuerySpec{spec}, Window: 10, FleetWorkers: -1}, ""},
		{"empty-fleet", Config{Queries: []QuerySpec{}}, ""},
		{"unnamed-member", Config{Queries: []QuerySpec{{Query: q}}, Window: 10}, ""},
		{"duplicate-member", Config{Queries: []QuerySpec{spec, spec}, Window: 10}, ""},
		{"durable-path-unsafe-name", Config{
			Queries: []QuerySpec{{Name: "a/b", Query: q}}, Window: 10,
			Durable: &Durability{Dir: "x"},
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(tc.cfg)
			if !errors.Is(err, ErrBadOptions) {
				t.Fatalf("Open = %v, want ErrBadOptions", err)
			}
			if tc.msg != "" && err.Error() != tc.msg {
				t.Fatalf("Open error = %q, want %q", err, tc.msg)
			}
		})
	}
	t.Run("single-is-not-a-fleet", func(t *testing.T) {
		eng, err := Open(Config{Query: q, Window: 10})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if _, ok := eng.(Fleet); ok {
			t.Fatal("a single-query engine implements Fleet")
		}
		if st := eng.Stats(); st.Fleet || st.Queries != nil {
			t.Fatalf("single-query Stats: Fleet=%v Queries=%v, want false/nil", st.Fleet, st.Queries)
		}
		_, err = OpenFleet(Config{Query: q, Window: 10})
		if want := "timingsubg: invalid options\nconfig does not select fleet mode (set Queries or Dynamic)"; err == nil || err.Error() != want {
			t.Fatalf("OpenFleet(Query) = %v, want %q", err, want)
		}
	})
}

// TestFleetDefaultsInherited checks Config-level defaults flow into
// members that leave them unset, while spec-level settings win.
func TestFleetDefaultsInherited(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	fl, err := OpenFleet(Config{
		Queries: []QuerySpec{
			{Name: "default", Query: q},
			{Name: "custom", Query: q, Options: Options{Window: 25}},
		},
		Window: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	edges := persistTestStream(labels, 300, 44)
	feedEach(t, fl, edges)
	st := fl.Stats()
	fl.Close()
	// The 25-tick window must hold no more edges than the 80-tick one.
	if d, c := st.Queries["default"].InWindow, st.Queries["custom"].InWindow; c > d {
		t.Fatalf("custom window (25) holds %d edges, default (80) holds %d", c, d)
	}
	if st.Queries["default"].InWindow == st.Queries["custom"].InWindow {
		t.Fatalf("windows did not differ: spec override ineffective")
	}
}

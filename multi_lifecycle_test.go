package timingsubg_test

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"timingsubg"
)

// chainQuery builds a 1-edge query x→y.
func chainQuery(t *testing.T, x, y timingsubg.Label) *timingsubg.Query {
	t.Helper()
	b := timingsubg.NewQueryBuilder()
	u, v := b.AddVertex(x), b.AddVertex(y)
	b.AddEdge(u, v)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestMultiSearcherDynamicLifecycle(t *testing.T) {
	for _, routed := range []bool{false, true} {
		name := "fanout"
		if routed {
			name = "routed"
		}
		t.Run(name, func(t *testing.T) {
			labels := timingsubg.NewLabels()
			la, lb := labels.Intern("a"), labels.Intern("b")

			var mu sync.Mutex
			got := map[string]int{}
			ms, err := timingsubg.OpenFleet(timingsubg.Config{
				Dynamic: true,
				Routed:  routed,
				OnMatch: func(name string, m *timingsubg.Match) {
					mu.Lock()
					got[name]++
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			feed := func(f, to int64, tm int64) {
				t.Helper()
				if _, err := ms.Feed(timingsubg.Edge{
					From: timingsubg.VertexID(f), To: timingsubg.VertexID(to),
					FromLabel: la, ToLabel: lb, Time: timingsubg.Timestamp(tm),
				}); err != nil {
					t.Fatal(err)
				}
			}

			// An empty fleet accepts edges and matches nothing.
			feed(1, 2, 1)
			if n := len(ms.Names()); n != 0 {
				t.Fatalf("empty fleet has %d names", n)
			}

			spec := timingsubg.QuerySpec{Name: "ab", Query: chainQuery(t, la, lb), Options: timingsubg.Options{Window: 100}}
			if err := ms.AddQuery(spec); err != nil {
				t.Fatal(err)
			}
			if err := ms.AddQuery(spec); err == nil {
				t.Fatal("duplicate AddQuery must fail")
			}
			if !ms.HasQuery("ab") {
				t.Fatal("HasQuery(ab) = false after AddQuery")
			}
			// The new query must not see the pre-join edge.
			feed(3, 4, 2)
			if got["ab"] != 1 {
				t.Fatalf("ab matched %d times, want 1 (post-join edge only)", got["ab"])
			}

			if err := ms.RemoveQuery("ab"); err != nil {
				t.Fatal(err)
			}
			if err := ms.RemoveQuery("ab"); err == nil {
				t.Fatal("removing an unknown query must fail")
			}
			feed(5, 6, 3)
			if got["ab"] != 1 {
				t.Fatalf("removed query still matched: %d", got["ab"])
			}

			// The freed slot is reused and the new query matches afresh.
			if err := ms.AddQuery(timingsubg.QuerySpec{
				Name: "ab2", Query: chainQuery(t, la, lb), Options: timingsubg.Options{Window: 100},
			}); err != nil {
				t.Fatal(err)
			}
			feed(7, 8, 4)
			ms.Close()
			if got["ab2"] != 1 {
				t.Fatalf("recycled-slot query matched %d times, want 1", got["ab2"])
			}
			if names := ms.Names(); len(names) != 1 || names[0] != "ab2" {
				t.Fatalf("Names() = %v, want [ab2]", names)
			}
		})
	}
}

// TestMultiSearcherConcurrentStats exercises the stats accessors from a
// concurrent goroutine while edges are being fed — the serving-layer
// access pattern. Run with -race to validate the atomic counters.
func TestMultiSearcherConcurrentStats(t *testing.T) {
	labels := timingsubg.NewLabels()
	la, lb := labels.Intern("a"), labels.Intern("b")
	ms, err := timingsubg.OpenFleet(timingsubg.Config{
		Queries: []timingsubg.QuerySpec{{Name: "ab", Query: chainQuery(t, la, lb)}},
		Window:  50,
		Routed:  true,
	})
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
			}
			_ = ms.Stats()
			_ = timingsubg.FastStats(ms)
			_ = ms.Names()
			_ = ms.HasQuery("ab")
		}
	}()
	for i := 0; i < 5000; i++ {
		if _, err := ms.Feed(timingsubg.Edge{
			From: timingsubg.VertexID(i), To: timingsubg.VertexID(i + 100000),
			FromLabel: la, ToLabel: lb, Time: timingsubg.Timestamp(i + 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	ms.Close()
	if fed := ms.Stats().Fed; fed != 5000 {
		t.Fatalf("Stats().Fed = %d, want 5000", fed)
	}
}

func TestPersistentMultiDynamicLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	labels := timingsubg.NewLabels()
	la, lb := labels.Intern("a"), labels.Intern("b")

	// open starts (or restarts) the dynamic durable fleet over dir with
	// specs as the initial roster, counting deliveries into got.
	open := func(dur timingsubg.Durability, specs []timingsubg.QuerySpec, got map[string]int) timingsubg.Fleet {
		t.Helper()
		fl, err := timingsubg.OpenFleet(timingsubg.Config{
			Queries: specs,
			Dynamic: true,
			Durable: &dur,
			OnMatch: func(name string, m *timingsubg.Match) { got[name]++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
	dur := timingsubg.Durability{Dir: dir}

	got := map[string]int{}
	pm := open(dur, nil, got)
	feed := func(f, to int64, tm int64) {
		t.Helper()
		if _, err := pm.Feed(timingsubg.Edge{
			From: timingsubg.VertexID(f), To: timingsubg.VertexID(to),
			FromLabel: la, ToLabel: lb, Time: timingsubg.Timestamp(tm),
		}); err != nil {
			t.Fatal(err)
		}
	}

	feed(1, 2, 1) // logged, no queries yet
	if err := pm.AddQuery(timingsubg.QuerySpec{
		Name: "ab", Query: chainQuery(t, la, lb), Options: timingsubg.Options{Window: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	feed(3, 4, 2)
	if got["ab"] != 1 {
		t.Fatalf("ab matched %d, want 1 (joins at log tail)", got["ab"])
	}
	// Out-of-order edges are rejected before they can poison the log.
	if _, err := pm.Feed(timingsubg.Edge{From: 9, To: 10, FromLabel: la, ToLabel: lb, Time: 2}); !errors.Is(err, timingsubg.ErrOutOfOrder) {
		t.Fatalf("out-of-order feed: %v, want ErrOutOfOrder", err)
	}
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart with the query as an initial spec: its window state (the
	// edge at t=2) must be recovered, so completing context is intact.
	got2 := map[string]int{}
	pm2 := open(dur, []timingsubg.QuerySpec{
		{Name: "ab", Query: chainQuery(t, la, lb), Options: timingsubg.Options{Window: 1000}},
	}, got2)
	st := pm2.Stats()
	if st.LastTime != 2 {
		t.Fatalf("LastTime after restart = %d, want 2", st.LastTime)
	}
	if n := st.Queries["ab"].Matches; n != 1 {
		t.Fatalf("recovered match count = %d, want 1", n)
	}
	if _, err := pm2.Feed(timingsubg.Edge{
		From: 5, To: 6, FromLabel: la, ToLabel: lb, Time: 3,
	}); err != nil {
		t.Fatal(err)
	}
	if got2["ab"] != 1 {
		t.Fatalf("post-restart match deliveries = %d, want 1 (replay is silent for checkpointed state)", got2["ab"])
	}
	if err := pm2.RemoveQuery("ab"); err != nil {
		t.Fatal(err)
	}
	if pm2.HasQuery("ab") {
		t.Fatal("HasQuery true after RemoveQuery")
	}
	if err := pm2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentMultiAddQueryNamePathSafety(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	labels := timingsubg.NewLabels()
	la, lb := labels.Intern("a"), labels.Intern("b")
	pm, err := timingsubg.OpenFleet(timingsubg.Config{Dynamic: true, Durable: &timingsubg.Durability{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer pm.Close()
	for _, name := range []string{"", ".", "..", "a/b", `a\b`} {
		if err := pm.AddQuery(timingsubg.QuerySpec{
			Name: name, Query: chainQuery(t, la, lb), Options: timingsubg.Options{Window: 10},
		}); !errors.Is(err, timingsubg.ErrBadOptions) {
			t.Fatalf("AddQuery(%q) = %v, must be rejected (names become checkpoint directories)", name, err)
		}
	}
}

// TestPersistentMultiAddQueryCrashBeforeCheckpoint: a query added at
// runtime must keep its join-at-tail semantics across a crash that
// precedes any periodic checkpoint — the initial checkpoint written by
// AddQuery pins the join point.
func TestPersistentMultiAddQueryCrashBeforeCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	labels := timingsubg.NewLabels()
	la, lb := labels.Intern("a"), labels.Intern("b")
	dur := &timingsubg.Durability{Dir: dir, SyncEvery: 1}

	pm, err := timingsubg.OpenFleet(timingsubg.Config{Dynamic: true, Durable: dur})
	if err != nil {
		t.Fatal(err)
	}
	// An a→b edge lands before the query joins...
	if _, err := pm.Feed(timingsubg.Edge{From: 1, To: 2, FromLabel: la, ToLabel: lb, Time: 1}); err != nil {
		t.Fatal(err)
	}
	if err := pm.AddQuery(timingsubg.QuerySpec{
		Name: "ab", Query: chainQuery(t, la, lb), Options: timingsubg.Options{Window: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	// ...and the process dies with no Close (and no periodic checkpoint).

	var postRestart int
	pm2, err := timingsubg.OpenFleet(timingsubg.Config{
		Queries: []timingsubg.QuerySpec{
			{Name: "ab", Query: chainQuery(t, la, lb), Options: timingsubg.Options{Window: 1000}},
		},
		Dynamic: true,
		Durable: dur,
		OnMatch: func(name string, m *timingsubg.Match) { postRestart++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pm2.Close()
	st := pm2.Stats()
	if n := st.Queries["ab"].Matches; n != 0 {
		t.Fatalf("recovered query saw pre-join traffic: %d matches", n)
	}
	// The stream clock must recover from the pre-join record too, even
	// though no query replays it — otherwise t=1 could be issued twice
	// and the log would lose its monotonicity.
	if st.LastTime != 1 {
		t.Fatalf("LastTime after crash-restart = %d, want 1", st.LastTime)
	}
	if _, err := pm2.Feed(timingsubg.Edge{From: 8, To: 9, FromLabel: la, ToLabel: lb, Time: 1}); !errors.Is(err, timingsubg.ErrOutOfOrder) {
		t.Fatalf("reusing a logged timestamp after restart: %v, want ErrOutOfOrder", err)
	}
	if _, err := pm2.Feed(timingsubg.Edge{From: 3, To: 4, FromLabel: la, ToLabel: lb, Time: 2}); err != nil {
		t.Fatal(err)
	}
	if postRestart != 1 {
		t.Fatalf("post-restart deliveries = %d, want exactly 1 (the post-join edge)", postRestart)
	}
}

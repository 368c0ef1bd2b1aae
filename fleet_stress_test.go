package timingsubg

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// The fleet stress suite: hammer the full Fleet surface — AddQuery,
// RemoveQuery, Stats, CurrentMatches, Names, HasQuery — concurrently
// with ingest through both pipeline entry points (FeedBatch, and
// per-edge Feed as a batch of one) on both executors (FleetWorkers 1 =
// inline, 4 = sharded fan-out), then assert the accounting invariants
// the fan-out must preserve: no lost edges (every accepted edge reaches
// every broadcast member exactly once), no double-routing, and
// ErrClosed from every mutator after Close. The CI race job runs this
// under -race, which is where the locking protocol (roster RWMutex +
// per-shard locks + per-call barrier) earns its keep.

// feedDriver feeds one chunk of the stream and reports how many leading
// edges the engine accepted — the table input selecting the pipeline's
// entry point.
type feedDriver func(eng Engine, chunk []Edge) (int, error)

var feedDrivers = []struct {
	name string
	feed feedDriver
}{
	{"feedbatch", func(eng Engine, chunk []Edge) (int, error) { return eng.FeedBatch(chunk) }},
	{"feed", func(eng Engine, chunk []Edge) (int, error) {
		for i, e := range chunk {
			if _, err := eng.Feed(e); err != nil {
				return i, err
			}
		}
		return len(chunk), nil
	}},
}

// stressFleet is stressFleetVia through FeedBatch.
func stressFleet(t *testing.T, fl Fleet, edges []Edge, q *Query) int64 {
	t.Helper()
	return stressFleetVia(t, fl, edges, q, feedDrivers[0].feed)
}

// stressFleetVia runs the churn/sample/ingest storm against fl, feeding
// through feed, and returns the total number of edges it reported
// accepted.
func stressFleetVia(t *testing.T, fl Fleet, edges []Edge, q *Query, feed feedDriver) int64 {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var accepted atomic.Int64

	// Query churn: add and remove short-lived queries while the stream
	// runs. Names never collide with the pinned members.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("churn-%d", i%8)
			if fl.HasQuery(name) {
				if err := fl.RemoveQuery(name); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("RemoveQuery(%s): %v", name, err)
					return
				}
			} else {
				err := fl.AddQuery(QuerySpec{Name: name, Query: q})
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("AddQuery(%s): %v", name, err)
					return
				}
			}
		}
	}()

	// Samplers: the read surface must stay consistent mid-ingest.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := fl.Stats()
				var sum int64
				for _, qs := range st.Queries {
					sum += qs.Matches
				}
				if st.Matches != sum {
					t.Errorf("aggregate matches %d != member sum %d", st.Matches, sum)
					return
				}
				fl.CurrentMatches(func(m *Match) bool { return len(m.Edges) > 0 })
				_ = fl.Names()
				_ = fl.HasQuery("pinned")
			}
		}()
	}

	// The one feeder (the Engine contract's serialization point).
	for off := 0; off < len(edges); off += 256 {
		end := off + 256
		if end > len(edges) {
			end = len(edges)
		}
		n, err := feed(fl, edges[off:end])
		if err != nil {
			t.Fatalf("feed at %d: %v", off, err)
		}
		if n != end-off {
			t.Fatalf("feed at %d: fed %d of %d", off, n, end-off)
		}
		accepted.Add(int64(n))
	}
	close(stop)
	wg.Wait()
	return accepted.Load()
}

func TestShardedFleetStress(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 8000, 77)

	run := func(t *testing.T, cfg Config, workers int, feed feedDriver) {
		cfg.Dynamic = true
		cfg.FleetWorkers = workers
		cfg.Window = 50
		cfg.Queries = []QuerySpec{{Name: "pinned", Query: q}}
		if cfg.Durable != nil {
			d := *cfg.Durable
			d.Dir = t.TempDir()
			cfg.Durable = &d
		}
		fl, err := OpenFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		accepted := stressFleetVia(t, fl, edges, q, feed)

		st := fl.Stats()
		// No lost edges: every accepted edge is visible in the fleet
		// counter, and — broadcast mode — was fed to the pinned member
		// exactly once (a double-dispatch would overshoot, a dropped
		// shard task would undershoot).
		if st.Fed != accepted || accepted != int64(len(edges)) {
			t.Fatalf("fleet fed %d, accepted %d, offered %d", st.Fed, accepted, len(edges))
		}
		if cfg.Routed {
			if pf := st.Queries["pinned"].Fed; pf > st.Fed {
				t.Fatalf("routed pinned member fed %d > fleet fed %d (double-routing)", pf, st.Fed)
			}
		} else if pf := st.Queries["pinned"].Fed; pf != st.Fed {
			t.Fatalf("pinned member fed %d, fleet fed %d (lost or double-dispatched edges)", pf, st.Fed)
		}
		if st.Queries["pinned"].Matches == 0 {
			t.Fatal("pinned member matched nothing — stress stream exercises nothing")
		}

		if err := fl.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// The whole mutating surface reports ErrClosed from now on.
		if _, err := fl.Feed(edges[0]); !errors.Is(err, ErrClosed) {
			t.Fatalf("Feed after Close = %v, want ErrClosed", err)
		}
		if _, err := fl.FeedBatch(edges[:1]); !errors.Is(err, ErrClosed) {
			t.Fatalf("FeedBatch after Close = %v, want ErrClosed", err)
		}
		if err := fl.AddQuery(QuerySpec{Name: "late", Query: q}); !errors.Is(err, ErrClosed) {
			t.Fatalf("AddQuery after Close = %v, want ErrClosed", err)
		}
		if err := fl.RemoveQuery("pinned"); !errors.Is(err, ErrClosed) {
			t.Fatalf("RemoveQuery after Close = %v, want ErrClosed", err)
		}
		// The read surface stays sane on a closed fleet.
		if got := fl.Stats().Fed; got != st.Fed {
			t.Fatalf("Stats changed after Close: %d != %d", got, st.Fed)
		}
	}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"broadcast", Config{}},
		{"routed", Config{Routed: true}},
		{"durable", Config{Durable: &Durability{CheckpointEvery: 1000}}},
	} {
		for _, workers := range []int{1, 4} {
			for _, d := range feedDrivers {
				t.Run(fmt.Sprintf("%s/workers-%d/%s", tc.name, workers, d.name), func(t *testing.T) {
					run(t, tc.cfg, workers, d.feed)
				})
			}
		}
	}
}

// TestShardedFleetConcurrentClose races Close against an active feeder:
// whatever interleaving occurs, every batch either lands fully before
// the close or is rejected with ErrClosed, and the final fleet counter
// equals the sum of the accepted batches — a torn batch (partially
// dispatched, then closed) must be impossible.
func TestShardedFleetConcurrentClose(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 6000, 13)

	fl, err := OpenFleet(Config{
		Queries:      []QuerySpec{{Name: "a", Query: q}, {Name: "b", Query: q}},
		Window:       50,
		FleetWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	closing := make(chan struct{})
	var closeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-closing
		closeErr = fl.Close()
	}()

	var accepted int64
	for off := 0; off < len(edges); off += 100 {
		if off == 3000 {
			close(closing)
		}
		n, err := fl.FeedBatch(edges[off : off+100])
		accepted += int64(n)
		if err != nil {
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("FeedBatch at %d: %v", off, err)
			}
			if n != 0 {
				t.Fatalf("FeedBatch at %d: ErrClosed with %d edges fed (torn batch)", off, n)
			}
			break
		}
		if n != 100 {
			t.Fatalf("FeedBatch at %d: fed %d of 100 without error", off, n)
		}
	}
	wg.Wait()
	if closeErr != nil {
		t.Fatalf("Close: %v", closeErr)
	}
	st := fl.Stats()
	if st.Fed != accepted {
		t.Fatalf("fleet fed %d != accepted %d", st.Fed, accepted)
	}
	if pf := st.Queries["a"].Fed; pf != accepted {
		t.Fatalf("member fed %d != accepted %d", pf, accepted)
	}
}

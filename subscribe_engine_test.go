package timingsubg

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// The results-plane conformance suite: Subscribe must work on every
// engine composition Open can build, and the union of N filtered
// subscriptions must equal OnMatch delivery exactly — same match
// multisets AND same per-query delivery order — because both are views
// of the same dispatcher publish stream.

// deliveryLog accumulates per-query ordered delivery records
// (match key + sequence number). It locks because sharded fleets
// publish different queries from concurrent shard workers.
type deliveryLog struct {
	mu   sync.Mutex
	keys map[string][]string
	seqs map[string][]int64
}

func newDeliveryLog() *deliveryLog {
	return &deliveryLog{keys: make(map[string][]string), seqs: make(map[string][]int64)}
}

func (l *deliveryLog) add(query, key string, seq int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.keys[query] = append(l.keys[query], key)
	l.seqs[query] = append(l.seqs[query], seq)
}

func (l *deliveryLog) addDelivery(dv Delivery) {
	l.add(dv.Query, streamMatchKey(dv.Match), dv.Seq)
}

// drain consumes a subscription into the log until its channel closes.
func drain(wg *sync.WaitGroup, sub *Subscription, l *deliveryLog) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for dv := range sub.C() {
			l.addDelivery(dv)
		}
	}()
}

// requireSameOrderedDelivery asserts two logs agree per query: same
// ordered key sequences, same sequence numbers.
func requireSameOrderedDelivery(t *testing.T, label string, got, want *deliveryLog) {
	t.Helper()
	if len(got.keys) != len(want.keys) {
		t.Fatalf("%s: got %d queries with deliveries, want %d", label, len(got.keys), len(want.keys))
	}
	for q, wantKeys := range want.keys {
		gotKeys := got.keys[q]
		if len(gotKeys) != len(wantKeys) {
			t.Fatalf("%s: query %q delivered %d matches, want %d", label, q, len(gotKeys), len(wantKeys))
		}
		for i := range wantKeys {
			if gotKeys[i] != wantKeys[i] {
				t.Fatalf("%s: query %q delivery %d = %s, want %s (order diverges)", label, q, i, gotKeys[i], wantKeys[i])
			}
		}
		for i, seq := range got.seqs[q] {
			if want.seqs[q][i] != seq {
				t.Fatalf("%s: query %q delivery %d seq = %d, want %d", label, q, i, seq, want.seqs[q][i])
			}
		}
	}
}

// requireDenseSeqs asserts each query's sequence numbers are exactly
// 1..n in order — the delivery-numbering contract.
func requireDenseSeqs(t *testing.T, l *deliveryLog) {
	t.Helper()
	for q, seqs := range l.seqs {
		for i, seq := range seqs {
			if seq != int64(i+1) {
				t.Fatalf("query %q delivery %d has seq %d, want %d", q, i, seq, i+1)
			}
		}
	}
}

func TestSubscribeConformance(t *testing.T) {
	labels := NewLabels()
	chain := persistTestQuery(t, labels)
	star := starQuery(t)
	edges := persistTestStream(labels, 2000, 77)
	const window = 80

	specs := []QuerySpec{
		{Name: "chain", Query: chain},
		{Name: "star", Query: star},
	}
	cases := []struct {
		name  string
		cfg   Config
		batch int // 0 = per-edge Feed
	}{
		{name: "single", cfg: Config{Query: chain, Window: window}},
		{name: "single-batch", cfg: Config{Query: chain, Window: window}, batch: 97},
		{name: "single-adaptive", cfg: Config{Query: chain, Window: window,
			Adaptive: &Adaptivity{ReoptimizeEvery: 128, MinGain: 1.05}}},
		{name: "single-durable", cfg: Config{Query: chain, Window: window,
			Durable: &Durability{CheckpointEvery: 300}}, batch: 113},
		{name: "single-countwindow", cfg: Config{Query: chain, CountWindow: 64}},
		{name: "fleet", cfg: Config{Queries: specs, Window: window}, batch: 89},
		{name: "fleet-workers-4", cfg: Config{Queries: specs, Window: window, FleetWorkers: 4}, batch: 89},
		{name: "fleet-routed", cfg: Config{Queries: specs, Window: window, Routed: true}},
		{name: "fleet-durable", cfg: Config{Queries: specs, Window: window,
			Durable: &Durability{CheckpointEvery: 300}}, batch: 101},
		{name: "fleet-durable-workers-4", cfg: Config{Queries: specs, Window: window,
			Durable: &Durability{CheckpointEvery: 300}, FleetWorkers: 4}, batch: 101},
		{name: "fleet-countwindow", cfg: Config{Queries: specs, CountWindow: 64, FleetWorkers: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.Durable != nil {
				d := *cfg.Durable
				d.Dir = t.TempDir()
				cfg.Durable = &d
			}
			// The OnMatch shim is the reference: it observes every
			// publish synchronously.
			want := newDeliveryLog()
			cfg.OnDelivery = want.addDelivery
			eng, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}

			// One filtered Block subscription per query, plus one
			// unfiltered subscription seeing everything. Small buffers
			// exercise the backpressure path; each consumer drains
			// concurrently with the feed.
			var wg sync.WaitGroup
			names := []string{""}
			if _, isFleet := eng.(Fleet); isFleet {
				names = []string{"chain", "star"}
			}
			union := newDeliveryLog()
			for _, name := range names {
				var opts SubscribeOptions
				if name != "" {
					opts.Queries = []string{name}
				}
				opts.Buffer = 8
				sub, err := eng.Subscribe(opts)
				if err != nil {
					t.Fatalf("subscribe %q: %v", name, err)
				}
				drain(&wg, sub, union)
			}
			all := newDeliveryLog()
			allSub, err := eng.Subscribe(SubscribeOptions{Buffer: 8})
			if err != nil {
				t.Fatal(err)
			}
			drain(&wg, allSub, all)

			if tc.batch > 0 {
				feedChunks(t, eng, edges, tc.batch)
			} else {
				feedEach(t, eng, edges)
			}
			eng.Close() // ends every subscription; drains exit
			wg.Wait()

			if len(want.keys) == 0 {
				t.Fatal("degenerate case: no matches delivered")
			}
			requireDenseSeqs(t, want)
			requireSameOrderedDelivery(t, "filtered-union", union, want)
			requireSameOrderedDelivery(t, "unfiltered", all, want)
		})
	}
}

// TestSubscribeDropOldestNeverBlocksFeed is the load-shedding
// guarantee: a subscriber with a full buffer and a drop policy can
// never stall FeedBatch, and the engine accounts for every shed
// delivery.
func TestSubscribeDropOldestNeverBlocksFeed(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 2500, 91)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("fleet-workers-%d", workers), func(t *testing.T) {
			fl, err := OpenFleet(Config{
				Queries:      []QuerySpec{{Name: "q1", Query: q}, {Name: "q2", Query: q}},
				Window:       60,
				FleetWorkers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Never drained: one-slot buffer, DropOldest. If this could
			// block, the watchdog below would trip.
			stalled, err := fl.Subscribe(SubscribeOptions{Buffer: 1, Policy: DropOldest})
			if err != nil {
				t.Fatal(err)
			}
			// And a DropNewest sibling, also never drained.
			stalledNew, err := fl.Subscribe(SubscribeOptions{Buffer: 1, Policy: DropNewest})
			if err != nil {
				t.Fatal(err)
			}

			done := make(chan struct{})
			go func() {
				defer close(done)
				feedChunks(t, fl, edges, 111)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("FeedBatch blocked on a full drop-policy subscriber")
			}
			st := fl.Stats()
			fl.Close()

			if st.Matches < 2 {
				t.Fatalf("degenerate stream: %d matches", st.Matches)
			}
			// DropOldest buffers every delivery and evicts all but the
			// last; DropNewest buffers the first and sheds the rest.
			if ss := stalled.Stats(); ss.Delivered != st.Matches || ss.Dropped != st.Matches-1 {
				t.Fatalf("DropOldest accounting = %+v, want delivered %d, dropped %d", ss, st.Matches, st.Matches-1)
			}
			if ss := stalledNew.Stats(); ss.Delivered != 1 || ss.Dropped != st.Matches-1 {
				t.Fatalf("DropNewest accounting = %+v, want delivered 1, dropped %d", ss, st.Matches-1)
			}
			if st.SubscriptionDropped != stalled.Stats().Dropped+stalledNew.Stats().Dropped {
				t.Fatalf("engine drop ledger %d != subscription sum", st.SubscriptionDropped)
			}
			// DropOldest retains the newest delivery; DropNewest the
			// oldest.
			if dv, ok := <-stalled.C(); !ok || dv.Seq <= 1 {
				t.Fatalf("DropOldest retained seq %d, want the newest", dv.Seq)
			}
			if dv, ok := <-stalledNew.C(); !ok || dv.Seq != 1 {
				t.Fatalf("DropNewest retained seq %d, want 1 (the oldest)", dv.Seq)
			}
		})
	}
}

// TestSubscribeResumeAfterSeq checks the engine-level resume cursor:
// a new subscription with AfterSeq skips everything at or below the
// cursor and delivers the rest.
func TestSubscribeResumeAfterSeq(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 1200, 41)

	eng, err := Open(Config{Query: q, Window: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	first := newDeliveryLog()
	var wg sync.WaitGroup
	sub, err := eng.Subscribe(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	drain(&wg, sub, first)
	feedChunks(t, eng, edges[:600], 67)
	sub.Cancel()
	wg.Wait()
	n := int64(len(first.seqs[""]))
	if n == 0 {
		t.Fatal("no matches in the first half")
	}

	// Resume after the cursor: half the already-seen horizon must be
	// skipped silently, the rest (old-but-after-cursor none here, plus
	// all new matches) delivered with continuing seqs.
	resumed := newDeliveryLog()
	sub2, err := eng.Subscribe(SubscribeOptions{AfterSeq: map[string]int64{"": n}})
	if err != nil {
		t.Fatal(err)
	}
	drain(&wg, sub2, resumed)
	feedChunks(t, eng, edges[600:], 67)
	eng.Close()
	wg.Wait()
	seqs := resumed.seqs[""]
	if len(seqs) == 0 {
		t.Fatal("no matches in the second half")
	}
	if seqs[0] != n+1 {
		t.Fatalf("resumed delivery starts at seq %d, want %d", seqs[0], n+1)
	}
}

// TestSubscribeDurableSeqStableAcrossCrash is the restart-dedup
// guarantee: matches re-reported by recovery replay carry the same
// per-query sequence numbers they had before the crash, so a consumer
// holding a durable cursor discards duplicates by integer comparison.
func TestSubscribeDurableSeqStableAcrossCrash(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 300, 42)
	want := runPlain(t, q, 40, edges)
	if len(want) == 0 {
		t.Fatal("reference run found no matches")
	}

	dir := t.TempDir()
	seqOf := map[string]int64{} // match key → first seq observed
	var dupes int
	var cursor int64
	exactlyOnce := map[string]int{}
	record := func(dv Delivery) {
		key := streamMatchKey(dv.Match)
		if prev, seen := seqOf[key]; seen {
			if prev != dv.Seq {
				t.Errorf("match %s re-reported with seq %d, had %d", key, dv.Seq, prev)
			}
			dupes++
		} else {
			seqOf[key] = dv.Seq
		}
		// The cursor protocol: ignore anything at or below the durable
		// high-water mark.
		if dv.Seq > cursor {
			cursor = dv.Seq
			exactlyOnce[key]++
		}
	}
	open := func() Engine {
		eng, err := Open(Config{
			Query: q, Window: 40,
			Durable:    &Durability{Dir: dir, CheckpointEvery: 64},
			OnDelivery: record,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	eng := open()
	feedEach(t, eng, edges[:170])
	crash(eng)

	eng2 := open() // replay re-reports post-checkpoint matches
	feedEach(t, eng2, edges[170:])
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}

	if dupes == 0 {
		t.Fatal("recovery replay re-reported nothing — crash scenario not exercised")
	}
	if len(exactlyOnce) != len(want) {
		t.Fatalf("cursor consumer saw %d distinct matches, want %d", len(exactlyOnce), len(want))
	}
	for key, n := range exactlyOnce {
		if n != 1 {
			t.Fatalf("match %s processed %d times under the cursor protocol", key, n)
		}
	}
}

// TestSubscribeRetireOnRemoveQuery checks the filtered-subscription
// lifecycle on a dynamic fleet: removing a subscription's last
// filtered query ends it, unfiltered subscriptions follow the roster,
// and a reused name restarts its sequence.
func TestSubscribeRetireOnRemoveQuery(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 1200, 13)

	fl, err := OpenFleet(Config{Dynamic: true, Window: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if err := fl.AddQuery(QuerySpec{Name: "a", Query: q}); err != nil {
		t.Fatal(err)
	}

	onA, err := fl.Subscribe(SubscribeOptions{Queries: []string{"a"}, Policy: DropOldest, Buffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	everything := newDeliveryLog()
	var wg sync.WaitGroup
	allSub, err := fl.Subscribe(SubscribeOptions{Buffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	drain(&wg, allSub, everything)

	feedChunks(t, fl, edges[:600], 97)
	firstMatches := fl.Stats().Matches
	if firstMatches == 0 {
		t.Fatal("no matches before removal")
	}
	if err := fl.RemoveQuery("a"); err != nil {
		t.Fatal(err)
	}
	// The filtered subscription ends because its only query is gone.
	deadline := time.After(10 * time.Second)
	for {
		stop := false
		select {
		case _, ok := <-onA.C():
			if !ok {
				stop = true
			}
		case <-deadline:
			t.Fatal("filtered subscription did not end after RemoveQuery")
		}
		if stop {
			break
		}
	}

	// A later query reusing the name starts a fresh sequence, and the
	// unfiltered subscription keeps following the roster.
	if err := fl.AddQuery(QuerySpec{Name: "a", Query: q}); err != nil {
		t.Fatal(err)
	}
	feedChunks(t, fl, edges[600:], 97)
	fl.Close()
	wg.Wait()
	seqs := everything.seqs["a"]
	if int64(len(seqs)) <= firstMatches {
		t.Fatalf("no matches after the name was reused (%d total)", len(seqs))
	}
	if reborn := seqs[firstMatches]; reborn != 1 {
		t.Fatalf("reused name restarted at seq %d, want 1", reborn)
	}
	requireSameOrderedDelivery(t, "unfiltered-across-rebirth", everything, everything)
}

// TestSubscribeChurnStress hammers Subscribe/Cancel (and roster
// churn) against a sharded FeedBatch stream. Run under -race: the
// assertions are secondary to the detector.
func TestSubscribeChurnStress(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	star := starQuery(t)
	edges := persistTestStream(labels, 6000, 3)

	fl, err := OpenFleet(Config{
		Dynamic:      true,
		Window:       60,
		FleetWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.AddQuery(QuerySpec{Name: "chain", Query: q}); err != nil {
		t.Fatal(err)
	}
	if err := fl.AddQuery(QuerySpec{Name: "star", Query: star}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Subscriber churn: attach with random shapes, read a little,
	// cancel. Some iterations drop the subscription without reading at
	// all.
	policies := []OverflowPolicy{Block, DropOldest, DropNewest}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var opts SubscribeOptions
				switch rng.Intn(3) {
				case 0:
					opts.Queries = []string{"chain"}
				case 1:
					opts.Queries = []string{"chain", "star"}
				}
				opts.Policy = policies[rng.Intn(len(policies))]
				opts.Buffer = 1 + rng.Intn(8)
				sub, err := fl.Subscribe(opts)
				if err != nil {
					return // engine closed under us: stress over
				}
				if opts.Policy == Block {
					// A Block subscription must be drained until cancelled,
					// or it stalls the stream.
					donec := make(chan struct{})
					go func() {
						for range sub.C() {
						}
						close(donec)
					}()
					time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
					sub.Cancel()
					<-donec
				} else {
					for n := rng.Intn(4); n > 0; n-- {
						select {
						case <-sub.C():
						default:
						}
					}
					sub.Cancel()
				}
			}
		}(g)
	}
	// Roster churn: a third query comes and goes, retiring filtered
	// subscriptions mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := fl.AddQuery(QuerySpec{Name: "extra", Query: q}); err != nil {
				return
			}
			sub, err := fl.Subscribe(SubscribeOptions{Queries: []string{"extra"}, Policy: DropNewest, Buffer: 2})
			if err != nil {
				return
			}
			if err := fl.RemoveQuery("extra"); err != nil {
				return
			}
			for range sub.C() { // must end: its only query is gone
			}
		}
	}()

	for off := 0; off < len(edges); off += 200 {
		end := off + 200
		if end > len(edges) {
			end = len(edges)
		}
		if _, err := fl.FeedBatch(edges[off:end]); err != nil {
			t.Fatalf("feed at %d: %v", off, err)
		}
	}
	close(stop)
	wg.Wait()
	st := fl.Stats()
	if st.Matches == 0 {
		t.Fatal("stress stream produced no matches")
	}
	fl.Close()
	// Post-close subscribes fail cleanly.
	if _, err := fl.Subscribe(SubscribeOptions{}); err != ErrClosed {
		t.Fatalf("Subscribe after Close = %v, want ErrClosed", err)
	}
}

// TestSubscribeIterator exercises the iter.Seq2 surface, including
// cancellation-by-break.
func TestSubscribeIterator(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 800, 29)

	eng, err := Open(Config{Query: q, Window: 60})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(SubscribeOptions{Policy: DropOldest, Buffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	feedEach(t, eng, edges)
	got := 0
	want := int(eng.Stats().Matches)
	eng.Close() // closes the channel so the range below terminates
	for query, m := range sub.Matches() {
		if query != "" || len(m.Edges) == 0 {
			t.Fatalf("bad iteration: query=%q match=%+v", query, m)
		}
		got++
	}
	if want == 0 || got != want {
		t.Fatalf("iterated %d matches, want %d", got, want)
	}

	// Breaking out cancels the subscription.
	eng2, err := Open(Config{Query: q, Window: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	sub2, err := eng2.Subscribe(SubscribeOptions{Policy: DropOldest, Buffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	feedEach(t, eng2, edges)
	for range sub2.Deliveries() {
		break
	}
	if _, ok := <-sub2.C(); ok {
		// A buffered tail may still drain; the channel must be closed,
		// i.e. reads eventually report !ok.
		for range sub2.C() {
		}
	}
}

package dispatch

import (
	"sync"
	"testing"
	"time"

	"timingsubg/internal/graph"
	"timingsubg/internal/match"
)

func mkMatch(id int64) *match.Match {
	return &match.Match{Edges: []graph.Edge{{ID: graph.EdgeID(id)}}}
}

func TestSequenceNumbering(t *testing.T) {
	d := New()
	var got []int64
	d.SubscribeFunc(func(dv Delivery) { got = append(got, dv.Seq) })
	for i := 0; i < 3; i++ {
		d.Publish("a", mkMatch(int64(i)))
	}
	d.Publish("b", mkMatch(9))
	if len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 1 {
		t.Fatalf("seqs = %v, want per-query 1,2,3 then 1", got)
	}
	if d.Seq("a") != 3 || d.Seq("b") != 1 {
		t.Fatalf("Seq(a)=%d Seq(b)=%d", d.Seq("a"), d.Seq("b"))
	}
}

func TestSeedSeqResumesNumbering(t *testing.T) {
	d := New()
	d.SeedSeq("q", 41)
	sub := d.Subscribe(Options{Buffer: 4})
	d.Publish("q", mkMatch(1))
	if dv := <-sub.C(); dv.Seq != 42 {
		t.Fatalf("seeded seq = %d, want 42", dv.Seq)
	}
}

func TestFilterAndAfterSeq(t *testing.T) {
	d := New()
	sub := d.Subscribe(Options{Queries: []string{"a"}, Buffer: 8, AfterSeq: map[string]int64{"a": 2}})
	for i := 0; i < 4; i++ {
		d.Publish("a", mkMatch(int64(i)))
		d.Publish("b", mkMatch(int64(10+i)))
	}
	d.Close()
	var seqs []int64
	for dv := range sub.C() {
		if dv.Query != "a" {
			t.Fatalf("filter leaked query %q", dv.Query)
		}
		seqs = append(seqs, dv.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Fatalf("resumed seqs = %v, want [3 4]", seqs)
	}
	if st := sub.Stats(); st.Dropped != 0 {
		t.Fatalf("AfterSeq skips counted as drops: %+v", st)
	}
}

func TestChannelSubscriberGetsClone(t *testing.T) {
	d := New()
	var scratch *match.Match
	d.SubscribeFunc(func(dv Delivery) { scratch = dv.Match })
	sub := d.Subscribe(Options{Buffer: 1})
	m := mkMatch(7)
	d.Publish("", m)
	dv := <-sub.C()
	if scratch != m {
		t.Fatal("sync subscriber must see the scratch match")
	}
	if dv.Match == m {
		t.Fatal("channel subscriber must get a clone, not scratch")
	}
	if dv.Match.Edges[0].ID != 7 {
		t.Fatalf("clone content diverged: %+v", dv.Match)
	}
}

func TestRetire(t *testing.T) {
	d := New()
	only := d.Subscribe(Options{Queries: []string{"a"}, Buffer: 1})
	both := d.Subscribe(Options{Queries: []string{"a", "b"}, Buffer: 1})
	all := d.Subscribe(Options{Buffer: 4}) // room for both publishes below
	d.Publish("a", mkMatch(1))

	live := func(q string) bool { return q == "b" }
	d.Retire("a", live)
	if _, ok := <-only.C(); !ok {
		// buffered delivery drains first
		t.Fatal("retired subscription lost its buffered delivery")
	}
	if _, ok := <-only.C(); ok {
		t.Fatal("subscription filtered solely on a retired query must end")
	}
	if dv, ok := <-both.C(); !ok || dv.Query != "a" {
		t.Fatal("surviving subscription lost its buffered delivery")
	}
	select {
	case _, ok := <-both.C():
		if !ok {
			t.Fatal("subscription with a surviving filtered query must stay open")
		}
		t.Fatal("unexpected extra delivery")
	default:
	}
	if d.Seq("a") != 0 {
		t.Fatalf("retired query seq = %d, want reset", d.Seq("a"))
	}
	d.Publish("b", mkMatch(2))
	if dv := <-all.C(); dv.Query != "a" {
		t.Fatalf("unfiltered subscription lost its buffered delivery: %+v", dv)
	}
	if dv := <-all.C(); dv.Query != "b" {
		t.Fatalf("unfiltered subscription missed post-retire publish: %+v", dv)
	}
	d.Close()
	if d.Subscribe(Options{}) != nil {
		t.Fatal("Subscribe after Close must return nil")
	}
}

func TestBlockReleasedByCancel(t *testing.T) {
	d := New()
	sub := d.Subscribe(Options{Buffer: 1, Policy: Block})
	d.Publish("", mkMatch(1)) // fills the buffer
	released := make(chan struct{})
	go func() {
		d.Publish("", mkMatch(2)) // blocks on the full buffer
		close(released)
	}()
	// Let the publisher reach the blocking send before cancelling, so
	// the release path (not the closed-check) is what's exercised.
	time.Sleep(50 * time.Millisecond)
	sub.Cancel()
	<-released
	if st := sub.Stats(); st.Dropped != 1 {
		t.Fatalf("cancelled-while-blocked delivery not accounted: %+v", st)
	}
}

func TestConcurrentPublishDistinctQueries(t *testing.T) {
	d := New()
	sub := d.Subscribe(Options{Buffer: 4096})
	var wg sync.WaitGroup
	for _, q := range []string{"a", "b", "c", "d"} {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d.Publish(q, mkMatch(int64(i)))
			}
		}(q)
	}
	wg.Wait()
	d.Close()
	next := map[string]int64{}
	for dv := range sub.C() {
		next[dv.Query]++
		if dv.Seq != next[dv.Query] {
			t.Fatalf("query %q delivered seq %d out of order (want %d)", dv.Query, dv.Seq, next[dv.Query])
		}
	}
	for q, n := range next {
		if n != 200 {
			t.Fatalf("query %q delivered %d, want 200", q, n)
		}
	}
}

// TestPublishAllocs pins Publish's own cost: with no channel
// subscriber it allocates nothing; with one DropOldest subscriber whose
// consumer releases each delivery, nothing either, since every publish
// overwrites the match released before it; and when that subscriber
// overflows instead, the evicted delivery's match is the one reused.
// The free list is a channel, not a sync.Pool, so the counts hold under
// -race too.
func TestPublishAllocs(t *testing.T) {
	d := New()
	d.SubscribeFunc(func(Delivery) {})
	m := &match.Match{Vtx: []graph.VertexID{1, 2}, Edges: []graph.Edge{{ID: 1}, {ID: 2}}}
	d.Publish("q", m) // the query's sequence counter exists from here on
	if allocs := testing.AllocsPerRun(1000, func() { d.Publish("q", m) }); allocs != 0 {
		t.Fatalf("publish with no channel subscriber allocates %.1f times, want 0", allocs)
	}

	sub := d.Subscribe(Options{Buffer: 4, Policy: DropOldest})
	defer sub.Cancel()
	allocs := testing.AllocsPerRun(1000, func() {
		d.Publish("q", m)
		dv := <-sub.C()
		if dv.Match == m || dv.Match.Edges[1].ID != 2 {
			t.Fatal("the delivered match is not a copy of the published one")
		}
		sub.Release(dv)
	})
	if allocs != 0 {
		t.Fatalf("publish to one releasing DropOldest subscriber allocates %.1f times, want 0", allocs)
	}

	for range 4 {
		d.Publish("q", m) // fill the buffer: each later publish evicts one
	}
	if allocs := testing.AllocsPerRun(1000, func() { d.Publish("q", m) }); allocs != 0 {
		t.Fatalf("publish to one overflowing DropOldest subscriber allocates %.1f times, want 0", allocs)
	}
}

// TestReleaseNeverCrossesIncarnations hands matches back around a
// query's retirement and the reuse of its name by a query of another
// shape: a match released after ResetSeq is dropped with the cell it
// would have joined, and one released into the new cell is never
// handed out in place of a copy of the new shape.
func TestReleaseNeverCrossesIncarnations(t *testing.T) {
	d := New()
	sub := d.Subscribe(Options{Buffer: 4})
	defer sub.Cancel()
	small := &match.Match{Vtx: []graph.VertexID{1, 2}, Edges: []graph.Edge{{ID: 1}}}
	big := &match.Match{Vtx: []graph.VertexID{3, 4, 5}, Edges: []graph.Edge{{ID: 7}, {ID: 8}}}

	d.Publish("q", small)
	d.Publish("q", small)
	first, second := <-sub.C(), <-sub.C()
	d.ResetSeq("q")
	sub.Release(first) // q's cell is gone: dropped, no cell created
	if _, ok := d.perQuery.Load("q"); ok {
		t.Fatal("Release created a cell for a retired query")
	}

	d.Publish("q", big) // the new incarnation's cell
	third := <-sub.C()
	sub.Release(second) // lands in the new cell, with the old shape
	d.Publish("q", big)
	fourth := <-sub.C()
	for _, dv := range []Delivery{third, fourth} {
		if dv.Match == first.Match || dv.Match == second.Match {
			t.Fatalf("seq %d reuses a match of the retired incarnation", dv.Seq)
		}
		if len(dv.Match.Vtx) != 3 || len(dv.Match.Edges) != 2 || dv.Match.Edges[1].ID != 8 {
			t.Fatalf("seq %d delivered %+v, want a copy of %+v", dv.Seq, dv.Match, big)
		}
	}

	sub.Release(third) // same shape: this one is reused
	d.Publish("q", big)
	if fifth := <-sub.C(); fifth.Match != third.Match || fifth.Match.Edges[0].ID != 7 {
		t.Fatalf("a released match of the live shape was not reused: %+v", fifth.Match)
	}
}

// TestReleaseConcurrent publishes two queries from two goroutines to
// two subscribers that check and release every delivery: a match
// reused while a consumer still read it, or handed to two consumers at
// once, shows as a wrong edge ID (and as a race under -race).
func TestReleaseConcurrent(t *testing.T) {
	d := New()
	const n = 2000
	var wg sync.WaitGroup
	for range 2 {
		sub := d.Subscribe(Options{Buffer: 8})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for dv := range sub.C() {
				if got := int64(dv.Match.Edges[0].ID); got != dv.Seq {
					t.Errorf("query %s seq %d carries edge %d", dv.Query, dv.Seq, got)
				}
				sub.Release(dv)
			}
		}()
	}
	var pubs sync.WaitGroup
	for _, q := range []string{"a", "b"} {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			m := mkMatch(0)
			for i := int64(1); i <= n; i++ {
				m.Edges[0].ID = graph.EdgeID(i)
				d.Publish(q, m)
			}
		}()
	}
	pubs.Wait()
	d.Close()
	wg.Wait()
	if got := d.Delivered(); got != 2*2*n {
		t.Fatalf("delivered %d, want %d", got, 2*2*n)
	}
}

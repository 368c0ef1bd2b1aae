// Package dispatch is the results plane of the timingsubg engine: one
// dispatcher per engine fans completed matches out to any number of
// runtime-attached subscriptions, each with its own query-name filter,
// buffer and overflow policy. It replaces both the OnMatch-callback
// monoculture (a single consumer frozen at Open time) and the bespoke
// SSE hub the serving layer used to keep: the engine-side contract and
// the network contract are now the same subscription.
//
// # Delivery model
//
// Publish is called from the engine's (per-query serialized) match
// reporting path. Each publish assigns the match a per-query delivery
// sequence number, starting at 1, that is stable for a given stream:
// in durable mode the counter is seeded from the recovered checkpoint
// (SeedSeq), so a match re-reported by recovery replay carries the
// same sequence number it had before the crash. Consumers that track
// their per-query high-water mark therefore get duplicate suppression
// across restarts by comparing integers — no content hashing, no
// bounded-capacity deduper.
//
// Synchronous subscribers (SubscribeFunc — the OnMatch/OnDelivery
// shims) borrow the publisher's match inline on the reporting
// goroutine: it is valid for the duration of the call, and a
// subscriber that retains it must Clone it. Channel subscribers each
// receive their own copy (the consumer owns it) and are each
// delivered under their own lock, so fan-out from concurrent fleet
// shards is serialized per subscription while distinct subscriptions
// proceed in parallel.
//
// # Match reuse
//
// A channel consumer done with a delivery may hand its match back with
// Sub.Release; so does the dispatcher with every copy an overflow
// policy drops. Each query keeps the matches handed back in a free list
// of at most freeCap, and Publish overwrites one of them (CopyFrom)
// before it clones. A consumer that releases every delivery after use
// therefore costs no allocation per match in the steady state.
package dispatch

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"timingsubg/internal/match"
)

// Policy says what a publish does when a subscription's buffer is full.
type Policy int

const (
	// Block waits for the consumer: no loss, at the price of stalling
	// the publishing engine (backpressure).
	Block Policy = iota
	// DropOldest evicts the oldest buffered delivery to make room, so
	// the buffer always holds the newest matches. Ingest never stalls.
	DropOldest
	// DropNewest drops the incoming delivery, keeping the oldest
	// buffered matches. Ingest never stalls.
	DropNewest
)

// Delivery is one match handed to a subscriber.
type Delivery struct {
	// Query names the query that matched ("" on single-query engines).
	Query string
	// Seq is the per-query delivery sequence number, from 1. Stable
	// across durable recovery replay (see package comment).
	Seq int64
	// Match is the complete match. Channel subscribers own it (it is
	// their own copy) until they hand it back with Sub.Release.
	// SubscribeFunc subscribers borrow the publisher's match for the
	// duration of the call and must Clone to retain it.
	Match *match.Match
}

// Options configures one subscription.
type Options struct {
	// Queries filters deliveries by query name; nil or empty means
	// every query, including ones registered after the subscription.
	Queries []string
	// Prefix, when non-empty, additionally restricts the subscription
	// to queries whose name starts with it — the namespace form of the
	// filter. Unlike Queries it follows the roster dynamically: queries
	// registered later under the prefix are delivered, and the
	// subscription does not end when its current queries retire.
	Prefix string
	// Buffer is the channel capacity; values < 1 become 1.
	Buffer int
	// Policy is the overflow policy when the buffer is full.
	Policy Policy
	// AfterSeq holds per-query resume cursors: a delivery for query q
	// with Seq <= AfterSeq[q] is silently skipped (not counted as
	// dropped). The dedup half of resumable delivery.
	AfterSeq map[string]int64
}

// Dispatcher fans match deliveries out to subscriptions. One per
// engine; safe for concurrent Publish across distinct queries.
type Dispatcher struct {
	mu sync.Mutex
	// subs is the live channel subscriptions, copy-on-write: replaced
	// under mu, never modified in place, so Publish reads it without a
	// lock or an allocation.
	subs   atomic.Pointer[[]*Sub]
	fns    []func(Delivery) // synchronous subscribers, fixed at open
	seq    map[string]int64
	closed bool

	delivered atomic.Int64
	dropped   atomic.Int64

	// perQuery attributes delivered/dropped per query name (the
	// observability plane's per-query accounting). sync.Map because
	// drop attribution happens under a Sub's lock, outside d.mu.
	perQuery sync.Map // string → *queryCounts
}

// freeCap bounds each query's free list of handed-back matches. One
// ingest batch publishes its burst of matches faster than a consumer
// hands them back, so the list holds about a burst: on tsbench's
// wiki_fleet, 16 reused too few and 256 little more than 64. At most
// freeCap matches per query stay idle; the rest are left to the
// garbage collector.
const freeCap = 64

// queryCounts is one query's delivery cell: its accounting and its
// free list of matches for Publish to overwrite.
type queryCounts struct {
	delivered atomic.Int64
	dropped   atomic.Int64
	// free holds at most freeCap matches handed back by consumers
	// (Sub.Release) or dropped by an overflow policy. Both ends are
	// non-blocking.
	free chan *match.Match
}

// qc returns query's counter cell, creating it on first use.
func (d *Dispatcher) qc(query string) *queryCounts {
	if v, ok := d.perQuery.Load(query); ok {
		return v.(*queryCounts)
	}
	v, _ := d.perQuery.LoadOrStore(query, &queryCounts{free: make(chan *match.Match, freeCap)})
	return v.(*queryCounts)
}

// copyOf returns a copy of m for one channel subscriber: a free match
// overwritten with m, or a clone when the free list is empty. A free
// match of another shape (left by a retired query whose name was
// reused) is dropped, never overwritten.
func (c *queryCounts) copyOf(m *match.Match) *match.Match {
	select {
	case r := <-c.free:
		if len(r.Vtx) == len(m.Vtx) && len(r.Edges) == len(m.Edges) {
			r.CopyFrom(m)
			return r
		}
	default:
	}
	return m.Clone()
}

// put adds m to the free list, or leaves it to the garbage collector
// when the list is full.
func (c *queryCounts) put(m *match.Match) {
	select {
	case c.free <- m:
	default:
	}
}

// QueryCounts returns deliveries buffered and dropped for one query
// name, across all of its subscriptions.
func (d *Dispatcher) QueryCounts(query string) (delivered, dropped int64) {
	if v, ok := d.perQuery.Load(query); ok {
		c := v.(*queryCounts)
		return c.delivered.Load(), c.dropped.Load()
	}
	return 0, 0
}

// New returns an empty dispatcher.
func New() *Dispatcher {
	d := &Dispatcher{seq: make(map[string]int64)}
	d.subs.Store(&[]*Sub{})
	return d
}

// setSubs publishes a new subscription snapshot. Caller holds d.mu.
func (d *Dispatcher) setSubs(subs []*Sub) { d.subs.Store(&subs) }

// SubscribeFunc attaches a synchronous subscriber invoked inline on
// the publishing goroutine for every query — the OnMatch/OnDelivery
// shim. Call only before the engine starts publishing (at Open).
func (d *Dispatcher) SubscribeFunc(fn func(Delivery)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fns = append(d.fns, fn)
}

// SeedSeq sets query's next-delivery baseline to n, so the next
// publish is n+1. Durable recovery seeds each query with its
// checkpointed match count before replaying the WAL suffix, which is
// what makes replayed sequence numbers identical to the pre-crash run.
func (d *Dispatcher) SeedSeq(query string, n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq[query] = n
}

// ResetSeq zeroes query's delivery counter (query retirement: a later
// query reusing the name starts a fresh sequence, matching what a
// durable restart would produce).
func (d *Dispatcher) ResetSeq(query string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.seq, query)
	d.perQuery.Delete(query)
}

// Seq returns query's latest assigned sequence number.
func (d *Dispatcher) Seq(query string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq[query]
}

// Subscribe attaches one channel subscription, or returns nil if the
// dispatcher is closed. Safe to call at any time, from any goroutine.
func (d *Dispatcher) Subscribe(o Options) *Sub {
	if o.Buffer < 1 {
		o.Buffer = 1
	}
	s := &Sub{
		d:      d,
		policy: o.Policy,
		prefix: o.Prefix,
		ch:     make(chan Delivery, o.Buffer),
		done:   make(chan struct{}),
	}
	if len(o.Queries) > 0 {
		s.filter = make(map[string]struct{}, len(o.Queries))
		for _, q := range o.Queries {
			s.filter[q] = struct{}{}
		}
	}
	if len(o.AfterSeq) > 0 {
		s.after = make(map[string]int64, len(o.AfterSeq))
		for q, n := range o.AfterSeq {
			s.after[q] = n
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.setSubs(append(slices.Clip(*d.subs.Load()), s))
	return s
}

// Publish assigns the next sequence number for query and fans m out.
// Must be serialized per query (the engine's match reporting already
// is); distinct queries may publish concurrently. m is borrowed:
// synchronous subscribers see it directly, channel subscribers each get
// their own copy (the delivered match is owned by its consumer), and
// Publish keeps no reference to it once it returns.
func (d *Dispatcher) Publish(query string, m *match.Match) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	seq := d.seq[query] + 1
	d.seq[query] = seq
	fns := d.fns
	d.mu.Unlock()

	// Synchronous subscribers run BEFORE the channel-subscriber
	// snapshot is loaded. This ordering is what makes
	// snapshot-then-replay consumers (the server's resume log, fed by an
	// fn-subscriber) race-free: a subscription attached before the
	// snapshot receives the event live; one attached after it was
	// created after the fn ran, so a log read performed after Subscribe
	// returns is guaranteed to see the event. Either way, nothing falls
	// between.
	dv := Delivery{Query: query, Seq: seq, Match: m}
	for _, fn := range fns {
		fn(dv)
	}

	var c *queryCounts
	for _, s := range *d.subs.Load() {
		if !s.wants(query) || seq <= s.after[query] {
			continue // filtered, or already seen: don't even copy
		}
		if c == nil {
			c = d.qc(query)
		}
		s.deliver(Delivery{Query: query, Seq: seq, Match: c.copyOf(m)}, c)
	}
}

// Retire ends every subscription whose explicit filter no longer names
// any live query (live reports liveness by name). Unfiltered
// subscriptions are untouched — they follow the roster dynamically.
// The retired query's sequence counter is reset.
func (d *Dispatcher) Retire(name string, live func(string) bool) {
	d.mu.Lock()
	delete(d.seq, name)
	d.perQuery.Delete(name)
	var ended []*Sub
	for _, s := range *d.subs.Load() {
		if s.filter == nil {
			continue
		}
		if _, ok := s.filter[name]; !ok {
			continue
		}
		anyLive := false
		for q := range s.filter {
			if live(q) {
				anyLive = true
				break
			}
		}
		if !anyLive {
			ended = append(ended, s)
		}
	}
	d.mu.Unlock()
	for _, s := range ended {
		s.Cancel()
	}
}

// Close cancels every subscription (their channels close) and rejects
// future subscribes. Idempotent.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	subs := *d.subs.Load()
	d.setSubs(nil)
	d.mu.Unlock()
	for _, s := range subs {
		s.Cancel()
	}
}

// Subscribers returns the number of live channel subscriptions.
func (d *Dispatcher) Subscribers() int {
	return len(*d.subs.Load())
}

// Delivered returns the total deliveries buffered to channel
// subscribers (synchronous subscribers are not counted).
func (d *Dispatcher) Delivered() int64 { return d.delivered.Load() }

// Dropped returns the total deliveries dropped by overflow policies,
// across live and cancelled subscriptions.
func (d *Dispatcher) Dropped() int64 { return d.dropped.Load() }

// remove detaches s without closing its channel (Cancel does both).
func (d *Dispatcher) remove(s *Sub) {
	d.mu.Lock()
	defer d.mu.Unlock()
	subs := *d.subs.Load()
	if i := slices.Index(subs, s); i >= 0 {
		d.setSubs(slices.Delete(slices.Clone(subs), i, i+1))
	}
}

// Stats is one subscription's delivery accounting.
type Stats struct {
	// Delivered counts deliveries buffered to the channel.
	Delivered int64
	// Dropped counts deliveries lost to the overflow policy (or to
	// publishes racing Cancel).
	Dropped int64
}

// Sub is one live channel subscription.
type Sub struct {
	d      *Dispatcher
	filter map[string]struct{} // nil = all queries
	prefix string              // "" = no prefix restriction
	after  map[string]int64    // read-only resume cursors
	policy Policy

	ch   chan Delivery
	done chan struct{}
	once sync.Once

	mu     sync.Mutex // serializes deliver against deliver and Cancel
	closed bool

	delivered atomic.Int64
	dropped   atomic.Int64
}

// C is the delivery channel. It closes when the subscription is
// cancelled, its last filtered query is retired, or the engine closes;
// buffered deliveries remain readable after that.
func (s *Sub) C() <-chan Delivery { return s.ch }

// Release hands back the match of a delivery received from C, once the
// consumer no longer uses it, for a later Publish of the same query to
// overwrite instead of cloning. The consumer must not touch dv.Match
// afterwards, and must release it at most once. A delivery of a query
// retired since is left to the garbage collector: Release never
// creates a query's cell.
func (s *Sub) Release(dv Delivery) {
	if dv.Match == nil {
		return
	}
	if v, ok := s.d.perQuery.Load(dv.Query); ok {
		v.(*queryCounts).put(dv.Match)
	}
}

// Stats returns the subscription's delivery accounting.
func (s *Sub) Stats() Stats {
	return Stats{Delivered: s.delivered.Load(), Dropped: s.dropped.Load()}
}

// Cancel detaches the subscription and closes its channel. Idempotent,
// safe to call concurrently with deliveries — a Block delivery stuck
// on a full buffer is released.
func (s *Sub) Cancel() {
	s.once.Do(func() {
		close(s.done) // releases a blocked deliver before we take mu
		s.d.remove(s)
		s.mu.Lock()
		s.closed = true
		close(s.ch)
		s.mu.Unlock()
	})
}

// wants reports whether the subscription's filter admits query. The
// filter is immutable, so no lock is needed.
func (s *Sub) wants(query string) bool {
	if s.prefix != "" && !strings.HasPrefix(query, s.prefix) {
		return false
	}
	if s.filter == nil {
		return true
	}
	_, ok := s.filter[query]
	return ok
}

// deliver applies the overflow policy to one delivery (already past
// the subscription's resume cursor; dv.Match is this subscription's
// own copy, and c is dv.Query's cell). A dropped delivery's match
// returns to its query's free list. Per-sub serialization (s.mu) keeps
// a subscription's stream in publish order even when fleet shards
// publish different queries concurrently.
func (s *Sub) deliver(dv Delivery, c *queryCounts) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.drop(c, dv.Match)
		return
	}
	switch s.policy {
	case DropNewest:
		select {
		case s.ch <- dv:
			s.count(c)
		default:
			s.drop(c, dv.Match)
		}
	case DropOldest:
		for {
			select {
			case s.ch <- dv:
				s.count(c)
				return
			default:
			}
			// Full: evict the oldest buffered delivery. Only this
			// goroutine sends (s.mu), so after one receive the next
			// send attempt succeeds unless the consumer drained the
			// buffer first — in which case the send succeeds anyway.
			// The drop is attributed to the evicted delivery's query,
			// which may differ from dv's on a multi-query subscription.
			select {
			case old := <-s.ch:
				s.drop(s.d.qc(old.Query), old.Match)
			default:
			}
		}
	default: // Block
		// The Block policy delivers under s.mu by design: the mutex is
		// this subscription's private serializer (never an engine or
		// dispatcher lock), and blocking while holding it is exactly the
		// documented backpressure contract — concurrent publishers to
		// the same subscription must queue behind the stalled consumer.
		//tsvet:allow lockhold — per-subscription Block backpressure holds only s.mu
		select {
		case s.ch <- dv:
			s.count(c)
		case <-s.done:
			s.drop(c, dv.Match)
		}
	}
}

func (s *Sub) count(c *queryCounts) {
	s.delivered.Add(1)
	s.d.delivered.Add(1)
	c.delivered.Add(1)
}

// drop counts a lost delivery against its query's cell c and returns
// its match, which no consumer saw, to c's free list.
func (s *Sub) drop(c *queryCounts, m *match.Match) {
	s.dropped.Add(1)
	s.d.dropped.Add(1)
	c.dropped.Add(1)
	c.put(m)
}

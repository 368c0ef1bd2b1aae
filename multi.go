package timingsubg

// QuerySpec names a query for multi-query (fleet) monitoring.
type QuerySpec struct {
	// Name tags matches in the callback.
	Name string
	// Query is the pattern to monitor.
	Query *Query
	// Options configures this query's engine. Fields left zero inherit
	// the fleet Config's defaults. The OnMatch field is ignored; use the
	// fleet-level callback instead.
	Options Options
	// Adaptive composes the feedback join-order reoptimizer onto this
	// member. Nil inherits the fleet Config's Adaptive setting.
	Adaptive *Adaptivity
	// Group tags this member with a statistics group — the serving
	// layer's tenant attribution hook. Members sharing a group are
	// aggregated into Stats.Groups[group]: summed counters plus a
	// group-wide detection histogram that survives member retirement.
	// Empty joins no group.
	Group string
}

// MultiSearcher runs several continuous queries over one shared stream.
// The fleet is dynamic: AddQuery and RemoveQuery register and retire
// queries while the stream is live. Feed, AddQuery and RemoveQuery must
// be serialized by the caller; the read accessors (MatchCounts, Names,
// HasQuery, RoutedFraction, SpaceBytes) may be called concurrently with
// them.
//
// Deprecated: MultiSearcher is a thin shim over the unified fleet
// engine. Use Open with Config{Queries: specs, ...} (or Dynamic: true),
// which exposes the same fleet with composable routing, durability and
// per-member adaptivity.
type MultiSearcher struct {
	fl *fleetEngine
}

// NewMultiSearcher builds a fan-out searcher. onMatch receives the query
// name along with each match; it is serialized per query engine.
//
// Deprecated: use Open.
func NewMultiSearcher(specs []QuerySpec, onMatch func(name string, m *Match)) (*MultiSearcher, error) {
	fl, err := openFleet(Config{Queries: specs, OnMatch: onMatch})
	if err != nil {
		return nil, err
	}
	return &MultiSearcher{fl: fl}, nil
}

// NewRoutedMultiSearcher is NewMultiSearcher with label-based routing:
// each edge is dispatched only to the queries that have a query edge
// with a compatible ⟨from-label, to-label, edge-label⟩ signature, so
// per-edge cost is proportional to the number of *interested* queries
// rather than the fleet size.
//
// Semantics are identical to the unrouted fan-out: an engine that is
// skipped for an edge could neither extend nor start any partial match
// with it, and its window catches up (expiring old edges) on its next
// interesting edge. The only observable difference is that edge IDs are
// per-engine arrival indices, so the same data edge may carry different
// IDs in matches of different queries.
//
// Routing requires time-based windows: a count window is defined over
// the edges *fed* to the engine, so skipping uninterested edges would
// silently widen each query's horizon to its last N relevant edges.
// Count-window specs are rejected.
//
// Deprecated: use Open with Config{Routed: true}.
func NewRoutedMultiSearcher(specs []QuerySpec, onMatch func(name string, m *Match)) (*MultiSearcher, error) {
	fl, err := openFleet(Config{Queries: specs, Routed: true, OnMatch: onMatch})
	if err != nil {
		return nil, err
	}
	return &MultiSearcher{fl: fl}, nil
}

// NewDynamicMultiSearcher returns an empty fleet ready for AddQuery and
// RemoveQuery — the serving-layer shape, where queries come and go over
// the life of the stream and the fleet may be momentarily empty. routed
// enables label-based routing (see NewRoutedMultiSearcher).
//
// Deprecated: use Open with Config{Dynamic: true}.
func NewDynamicMultiSearcher(routed bool, onMatch func(name string, m *Match)) *MultiSearcher {
	fl, err := openFleet(Config{Dynamic: true, Routed: routed, OnMatch: onMatch})
	if err != nil {
		// Unreachable: an empty dynamic in-memory config cannot fail.
		panic(err)
	}
	return &MultiSearcher{fl: fl}
}

// AddQuery registers one more query on the live fleet. The new query's
// window starts empty: it sees only edges fed after it joins, exactly as
// a newly deployed pattern cannot see traffic that predates its
// deployment. Names must be non-empty and unique among live queries.
// AddQuery must be serialized with Feed by the caller.
func (ms *MultiSearcher) AddQuery(spec QuerySpec) error { return ms.fl.AddQuery(spec) }

// RemoveQuery retires the named query: its engine is drained and its
// slot freed for reuse; no match for it is delivered after RemoveQuery
// returns. Removing an unknown name is an error. RemoveQuery must be
// serialized with Feed by the caller.
func (ms *MultiSearcher) RemoveQuery(name string) error { return ms.fl.RemoveQuery(name) }

// HasQuery reports whether a live query is registered under name.
func (ms *MultiSearcher) HasQuery(name string) bool { return ms.fl.HasQuery(name) }

// Names returns the live query names, in registration-slot order.
func (ms *MultiSearcher) Names() []string { return ms.fl.Names() }

// Feed pushes one edge to every query (or, in routed mode, to every
// interested query).
func (ms *MultiSearcher) Feed(e Edge) error {
	_, err := ms.fl.Feed(e)
	return err
}

// FeedBatch pushes a batch of edges; see Engine.FeedBatch.
func (ms *MultiSearcher) FeedBatch(batch []Edge) (int, error) { return ms.fl.FeedBatch(batch) }

// Stats returns the unified fleet snapshot (per-query snapshots under
// Stats.Queries).
func (ms *MultiSearcher) Stats() Stats { return ms.fl.Stats() }

// RoutedFraction reports, in routed mode, the ratio of engine feeds
// performed to engine feeds a naive fan-out would have performed
// (summing the live fleet size at each edge, so the ratio stays exact
// across AddQuery/RemoveQuery) — the dispatch work saved by routing.
// It returns 1 in unrouted mode. Safe to call while edges are being
// fed.
func (ms *MultiSearcher) RoutedFraction() float64 { return ms.fl.routedFraction() }

// Fed returns how many edges have been offered to the fleet. Safe to
// call while edges are being fed.
func (ms *MultiSearcher) Fed() int64 { return ms.fl.fed.Load() }

// Close drains all engines.
func (ms *MultiSearcher) Close() { ms.fl.Close() }

// MatchCounts returns per-query match counts, keyed by query name.
func (ms *MultiSearcher) MatchCounts() map[string]int64 { return ms.fl.matchCounts() }

// SpaceBytes sums the space of all engines. Call while no Feed is in
// flight.
func (ms *MultiSearcher) SpaceBytes() int64 { return ms.fl.spaceBytes() }

package timingsubg

import (
	"time"

	"timingsubg/internal/wal"
)

// PersistentMultiOptions configures a PersistentMultiSearcher.
//
// Deprecated: set Config.Durable and call Open.
type PersistentMultiOptions struct {
	// Dir is the durability directory. The edge log is shared by all
	// queries (one WAL append per edge, not per query); each query
	// keeps its own checkpoints under Dir/ck/<name>/.
	Dir string
	// CheckpointEvery writes per-query checkpoints after every n fed
	// edges. Zero means 4096.
	CheckpointEvery int
	// SyncEvery fsyncs the WAL after every n appends (zero disables).
	SyncEvery int
	// SyncInterval runs a background WAL group commit at this period
	// (see Durability.SyncInterval); zero disables.
	SyncInterval time.Duration
	// SegmentBytes sets the WAL segment rotation size (default 4 MiB).
	SegmentBytes int64
}

func (o PersistentMultiOptions) durability() *Durability {
	return &Durability{
		Dir:             o.Dir,
		CheckpointEvery: o.CheckpointEvery,
		SyncEvery:       o.SyncEvery,
		SyncInterval:    o.SyncInterval,
		SegmentBytes:    o.SegmentBytes,
	}
}

// PersistentMultiSearcher is a durable fleet: several continuous
// queries over one shared write-ahead log, each recovering
// independently from its own checkpoint plus the shared log suffix.
//
// Queries added to an existing directory (a name with no checkpoint)
// join from the oldest retained log record: history reclaimed by
// earlier checkpoints is gone, exactly as a newly deployed pattern
// cannot see traffic that predates its deployment.
//
// Feed, AddQuery, RemoveQuery, Checkpoint and Close must be serialized
// by the caller; the read accessors (MatchCounts, Names, HasQuery,
// SpaceBytes) may run concurrently with them.
//
// Delivery is at-least-once for post-checkpoint matches, per query
// (use MatchDeduper.SeenFor — or, on the unified engine, subscription
// sequence numbers — for exactly-once).
//
// Deprecated: PersistentMultiSearcher is a thin shim over the unified
// fleet engine. Use Open with Config{Queries: specs, Durable:
// &Durability{...}} — which also composes with routing and per-member
// adaptivity, combinations this façade cannot express.
type PersistentMultiSearcher struct {
	fl  *fleetEngine
	log *wal.Log // kept for test/diagnostic access to the live WAL
}

// OpenPersistentMulti opens (or creates) a durable fleet in opts.Dir.
// Spec options must use time-based windows and Workers <= 1; OnMatch
// fields in specs are ignored — use the fleet-level onMatch.
//
// Deprecated: use Open.
func OpenPersistentMulti(specs []QuerySpec, opts PersistentMultiOptions, onMatch func(name string, m *Match)) (*PersistentMultiSearcher, error) {
	return openPersistentMultiShim(specs, opts, onMatch, false)
}

// OpenDynamicPersistentMulti is OpenPersistentMulti for a dynamic
// deployment: the initial spec list may be empty, with queries arriving
// later through AddQuery. Passing the queries that were live before a
// restart as specs lets them recover their window state from the
// checkpoint/WAL machinery before new traffic is accepted.
//
// Deprecated: use Open with Config{Dynamic: true}.
func OpenDynamicPersistentMulti(specs []QuerySpec, opts PersistentMultiOptions, onMatch func(name string, m *Match)) (*PersistentMultiSearcher, error) {
	return openPersistentMultiShim(specs, opts, onMatch, true)
}

func openPersistentMultiShim(specs []QuerySpec, opts PersistentMultiOptions, onMatch func(name string, m *Match), dynamic bool) (*PersistentMultiSearcher, error) {
	fl, err := openFleet(Config{
		Queries: specs,
		Dynamic: dynamic,
		Durable: opts.durability(),
		OnMatch: onMatch,
	})
	if err != nil {
		return nil, err
	}
	return &PersistentMultiSearcher{fl: fl, log: fl.log}, nil
}

// AddQuery registers one more query on the live durable fleet. The new
// query joins at the log tail: it sees only edges fed after it joins
// (its window starts empty), and any stale checkpoint left under its
// name by a previously removed query is discarded. To instead recover a
// query's pre-restart window state, pass it to OpenDynamicPersistentMulti
// as an initial spec. AddQuery must be serialized with Feed.
func (pm *PersistentMultiSearcher) AddQuery(spec QuerySpec) error { return pm.fl.AddQuery(spec) }

// RemoveQuery retires the named query and deletes its checkpoints; its
// slot is freed for reuse and no match for it is delivered after
// RemoveQuery returns. The shared log is untouched (other queries may
// still need it). RemoveQuery must be serialized with Feed.
func (pm *PersistentMultiSearcher) RemoveQuery(name string) error { return pm.fl.RemoveQuery(name) }

// HasQuery reports whether a live query is registered under name.
func (pm *PersistentMultiSearcher) HasQuery(name string) bool { return pm.fl.HasQuery(name) }

// Names returns the live query names, in registration-slot order.
func (pm *PersistentMultiSearcher) Names() []string { return pm.fl.Names() }

// LastTime returns the timestamp of the most recent edge the fleet has
// seen, across restarts (recovered from checkpoints and log replay), or
// a very small value if the log is empty. Feeding must continue with
// strictly greater timestamps.
func (pm *PersistentMultiSearcher) LastTime() Timestamp { return Timestamp(pm.fl.clock.Load()) }

// Feed durably logs one edge and feeds it to every query. The edge's
// timestamp must exceed every previously fed edge's — enforced before
// the WAL append, so an out-of-order edge can never poison the log.
// After Close, Feed returns ErrClosed.
func (pm *PersistentMultiSearcher) Feed(e Edge) error {
	_, err := pm.fl.Feed(e)
	return err
}

// FeedBatch durably logs and fans out a batch of edges; see
// Engine.FeedBatch.
func (pm *PersistentMultiSearcher) FeedBatch(batch []Edge) (int, error) {
	return pm.fl.FeedBatch(batch)
}

// Stats returns the unified fleet snapshot (per-query snapshots under
// Stats.Queries).
func (pm *PersistentMultiSearcher) Stats() Stats { return pm.fl.Stats() }

// Checkpoint forces per-query checkpoints now and reclaims WAL
// segments no query needs anymore.
func (pm *PersistentMultiSearcher) Checkpoint() error { return pm.fl.Checkpoint() }

// Close checkpoints every query and closes the WAL.
func (pm *PersistentMultiSearcher) Close() error { return pm.fl.Close() }

// MatchCount returns the durable match total of the named query, or 0
// if no live query is registered under name.
func (pm *PersistentMultiSearcher) MatchCount(name string) int64 {
	st, ok := pm.fl.queryStats(name, true)
	if !ok {
		return 0
	}
	return st.Matches
}

// MatchCounts returns durable per-query match totals, keyed by name.
func (pm *PersistentMultiSearcher) MatchCounts() map[string]int64 { return pm.fl.matchCounts() }

// Replayed returns how many shared-log edges were replayed during the
// most recent OpenPersistentMulti.
func (pm *PersistentMultiSearcher) Replayed() int64 { return pm.fl.replayed }

// SpaceBytes sums the partial-match space of all engines.
func (pm *PersistentMultiSearcher) SpaceBytes() int64 { return pm.fl.spaceBytes() }

// WALSeq returns the shared log's next sequence number (= edges logged
// across all runs).
func (pm *PersistentMultiSearcher) WALSeq() int64 { return pm.fl.log.Seq() }

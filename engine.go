package timingsubg

import (
	"context"
	"errors"
	"time"

	"timingsubg/internal/stats"
	"timingsubg/internal/wal"
)

// ErrClosed is returned by Feed, FeedBatch and the fleet mutators when
// the engine has been closed. Feeding a closed engine was previously
// documented-forbidden but unchecked; it is now a checked error.
var ErrClosed = errors.New("timingsubg: engine is closed")

// Engine is the one contract every engine composition satisfies: a
// continuous time-constrained subgraph search engine over a sliding
// window, fed edges in timestamp order. Open builds an Engine from a
// Config; durability, adaptivity, fleet fan-out, window kind and storage
// backend are all orthogonal options of that one entry point, not
// separate types.
//
// Unless stated otherwise an Engine is not safe for concurrent feeding:
// Feed, FeedBatch, Run and Close must be serialized by the caller (one
// feeder goroutine, or an external lock). Fleets serialize Stats and
// the other read accessors against feeds internally, so sampling them
// while ingest runs is always safe; a sharded fleet (FleetWorkers > 1)
// additionally serializes AddQuery, RemoveQuery and Close against
// feeds, so the whole Fleet surface except the feed methods themselves
// is concurrency-safe there. For single engines the match and discard
// counters are atomic; the window fields (InWindow, LastTime), the
// walking fields (SpaceBytes, PartialMatches) and CurrentMatches
// should be read while no feed is in flight.
type Engine interface {
	// Feed pushes one edge. The edge's Time must exceed the previous
	// edge's; the returned ID is the engine's stream sequence for the
	// edge (the WAL sequence number in durable mode). After Close, Feed
	// returns ErrClosed.
	Feed(e Edge) (EdgeID, error)
	// FeedBatch pushes a batch of edges in order — the amortized fast
	// path: the closed-check, WAL write/sync, fleet lock acquisition and
	// maintenance cadences are paid once per batch rather than once per
	// edge. It returns how many leading edges were fed; on error, edges
	// from the failing one on were not fed. In every composition the
	// batch is validated for timestamp monotonicity before anything is
	// logged or evaluated, so a bad edge can never poison the WAL or
	// reach some members of a fleet and not others. Feed is the same
	// pipeline with a batch of one.
	FeedBatch(batch []Edge) (int, error)
	// Run consumes edges from a channel until it closes or ctx is
	// cancelled, then closes the engine. It returns the number of edges
	// processed and the first error, wrapped with the offending edge's
	// stream index.
	Run(ctx context.Context, edges <-chan Edge) (int64, error)
	// Close drains in-flight work, finalizes counters and, in durable
	// mode, checkpoints and closes the WAL. Close is idempotent.
	Close() error
	// Stats returns the unified counter snapshot.
	Stats() Stats
	// CurrentMatches enumerates the matches standing in the current
	// window (reported and not yet expired); fleets enumerate every
	// query's standing matches. The Match passed to fn is scratch —
	// Clone to retain. Call while no feed is in flight.
	CurrentMatches(fn func(*Match) bool)
	// Subscribe attaches a match consumer at runtime — the primary
	// results contract, replacing the Open-time OnMatch callback. It
	// may be called any number of times, from any goroutine, while the
	// engine runs; each subscription has its own query-name filter,
	// buffer and overflow policy (see SubscribeOptions), so one slow
	// reader only stalls ingest if it subscribed with Block. The
	// subscription ends (its channel closes) on Cancel, on engine
	// Close, or — when it filters by name on a fleet — when its last
	// filtered query is removed. After Close, Subscribe returns
	// ErrClosed.
	Subscribe(opts SubscribeOptions) (*Subscription, error)
}

// Fleet is the multi-query extension of Engine: a dynamic set of named
// queries over one shared stream. Open returns a Fleet when Config
// selects fleet mode (Queries and/or Dynamic); OpenFleet asserts that.
// AddQuery and RemoveQuery must be serialized with feeding by the
// caller, except on a sharded fleet (FleetWorkers > 1), which
// serializes them internally; HasQuery and Names may always run
// concurrently.
type Fleet interface {
	Engine
	// AddQuery registers one more query on the live fleet. Its window
	// starts empty: it sees only edges fed after it joins.
	AddQuery(spec QuerySpec) error
	// RemoveQuery retires the named query; no match for it is delivered
	// after RemoveQuery returns.
	RemoveQuery(name string) error
	// HasQuery reports whether a live query is registered under name.
	HasQuery(name string) bool
	// Names returns the live query names, in registration-slot order.
	Names() []string
}

// Stats is the unified live-counter snapshot of any Engine — the same
// declaration the serving layer marshals on GET /stats
// (client.EngineStats). Fields that a composition does not use stay at
// their zero value; the Adaptive, Durable and Fleet flags say which
// sections apply.
type Stats = stats.Stats

// Adaptivity composes the feedback join-order reoptimizer onto an
// engine. The paper selects the join order once, from the static
// joint-number heuristic (Section VI-C); adaptivity closes that loop
// with feedback from observed per-subquery cardinalities, rebuilding the
// engine under a cheaper order when the estimated gain clears MinGain.
// Adaptation changes performance, never results.
type Adaptivity struct {
	// ReoptimizeEvery checks the join order after every n fed edges.
	// Zero means 1024.
	ReoptimizeEvery int
	// MinGain is the estimated cost ratio (current order / best order)
	// required before paying for a rebuild. Zero means 2.0; values
	// closer to 1 reoptimize more eagerly.
	MinGain float64
}

// Durability composes write-ahead logging and checkpoint-based crash
// recovery onto an engine. Every fed edge is logged before it is
// matched; Open rebuilds the exact engine state after a crash or
// restart and resumes. Delivery across a restart is at-least-once for
// matches completed after the last checkpoint; sequence numbers are
// restart-stable, so a consumer resuming with SubscribeOptions.AfterSeq
// sees each match once.
type Durability struct {
	// Dir is the durability directory (WAL segments + checkpoints). In
	// fleet mode the edge log is shared by all queries; each query keeps
	// its own checkpoints under Dir/ck/<name>/.
	Dir string
	// CheckpointEvery writes a checkpoint after every n fed edges. Zero
	// means 4096.
	CheckpointEvery int
	// SyncEvery fsyncs the WAL after every n appends; zero disables
	// cadence fsync. A FeedBatch is one durability unit: it syncs at
	// most once, after the batch. Concurrent feeders group-commit —
	// many callers' durability waits coalesce into one fsync.
	SyncEvery int
	// SyncInterval, when positive, runs a background WAL group commit
	// at this period: appends become durable within roughly one
	// interval without any feeder blocking on the disk. It is the
	// throughput end of the durability lever; combine with SyncEvery: 0
	// for async durability, or leave both zero to persist only on
	// checkpoint/Close.
	SyncInterval time.Duration
	// SegmentBytes sets the WAL segment rotation size (default 4 MiB).
	// Together with checkpoint-gated truncation it bounds the on-disk
	// log: after a checkpoint the WAL holds at most the records the
	// checkpoint does not cover plus one segment.
	SegmentBytes int64

	// openFile, when non-nil, replaces os.OpenFile for WAL segment
	// writes — the fault-injection seam the torn-write crash tests use
	// to kill an append mid-batch. Production code leaves it nil.
	openFile wal.OpenFileFunc
}

// Config configures Open. Exactly one of Query (single-query mode) and
// Queries/Dynamic (fleet mode) selects the engine shape; every other
// option is orthogonal and composable — adaptive+durable engines and
// adaptive members inside a fleet included.
type Config struct {
	// Query selects single-query mode.
	Query *Query
	// Queries selects fleet mode: several named queries over one shared
	// stream. Each spec's Options override the Config-level defaults
	// below where set.
	Queries []QuerySpec
	// Dynamic selects fleet mode with a dynamic roster: Queries may be
	// empty and AddQuery/RemoveQuery reshape the fleet while the stream
	// is live.
	Dynamic bool
	// Routed enables label-based routing in fleet mode: each edge is
	// dispatched only to the queries with a compatible
	// ⟨from-label, to-label, edge-label⟩ signature. Requires time-based
	// windows (a count window is defined over the edges fed to the
	// engine, so skipping would silently widen it).
	Routed bool
	// FleetWorkers > 1 shards fleet evaluation: members are partitioned
	// across that many shards, each with its own lock and worker, and
	// Feed/FeedBatch fan out to the shards concurrently with a barrier
	// per call — per-member edge order is unchanged, and results are
	// identical to the sequential fleet. A sharded fleet enforces
	// timestamp monotonicity at the fleet boundary (an out-of-order
	// edge is rejected before any member sees it) and serializes
	// AddQuery/RemoveQuery/Close against feeds internally. Each member
	// engine itself stays serial. 0 or 1 means sequential evaluation.
	FleetWorkers int

	// Window is the time-based sliding-window duration |W|. Exactly one
	// of Window and CountWindow must be positive (in fleet mode, for
	// each member after spec overrides).
	Window Timestamp
	// CountWindow, when positive, uses a count-based window holding the
	// most recent CountWindow edges.
	CountWindow int
	// Storage selects the partial-match backend (default MSTree).
	Storage Storage
	// Decomposition overrides the automatic TC decomposition (single
	// mode; the initial order only, when Adaptive is set).
	Decomposition *Decomposition

	// Adaptive composes the feedback join-order reoptimizer (fleet mode:
	// onto every member that does not carry its own QuerySpec.Adaptive).
	Adaptive *Adaptivity
	// Durable composes write-ahead logging and checkpointed recovery.
	Durable *Durability

	// DisableMetrics turns the pipeline latency instrumentation off:
	// Stats.Stages and the per-query detection histograms stay nil and
	// the feed path performs no clock reads. The instrumentation costs
	// a few time.Now calls per edge (see BenchmarkInsertIngest's
	// metrics cell), so the default is on.
	DisableMetrics bool
	// EventTimeUnit, when positive, declares how edge timestamps map to
	// wallclock: an edge's Time is that many multiples of the unit
	// since the Unix epoch (e.g. time.Millisecond for Unix-millisecond
	// timestamps). It enables the event-time lag histogram and the
	// watermark lag gauge; zero (the default) disables both — detection
	// latency is pure wallclock and works regardless.
	EventTimeUnit time.Duration
	// SlowOpThreshold, when positive, fires OnSlowOp (or, when that is
	// nil, a slog warning) for every feed, batch or synchronous match
	// delivery whose wall time exceeds it, with a per-stage breakdown.
	SlowOpThreshold time.Duration
	// OnSlowOp receives slow-operation reports when SlowOpThreshold is
	// set. Called synchronously on the feed path — keep it cheap.
	OnSlowOp func(SlowOp)

	// OnMatch receives every complete match with the name of the query
	// that matched ("" in single-query mode); it may be nil when only
	// counters are needed. The callback is serialized per query engine
	// and, in durable mode, sees matches re-reported by recovery
	// replay (at-least-once). The match is borrowed for the duration of
	// the callback: the engine reuses it once the callback returns, so
	// Clone to retain it.
	//
	// OnMatch is a thin shim over the subscription results plane —
	// an internal synchronous subscription installed at Open. Runtime
	// consumers should prefer Engine.Subscribe, which attaches and
	// detaches while the stream runs, filters by query, and cannot
	// stall ingest unless it asks to.
	OnMatch func(query string, m *Match)
	// OnDelivery is OnMatch with the delivery envelope: it receives
	// every (query, sequence number, match) synchronously, including
	// durable recovery replay. It is the hook for consumers that
	// persist their own per-query delivery cursor and need to observe
	// replayed sequence numbers (runtime consumers should prefer
	// Subscribe with AfterSeq). Like OnMatch's, the Match is borrowed
	// for the duration of the call — Clone to retain. May be combined
	// with OnMatch.
	OnDelivery func(d Delivery)
}

// QuerySpec names one fleet member.
type QuerySpec struct {
	// Name tags the member's matches (Delivery.Query, the OnMatch query
	// argument) and keys Stats.Queries.
	Name string
	// Query is the pattern to monitor.
	Query *Query
	// Options configures this query's engine. Fields left zero inherit
	// the fleet Config's defaults.
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

// Open builds an Engine from cfg — the package's one constructor. In
// fleet mode the returned Engine is a Fleet. In durable mode, if
// Durable.Dir holds a previous run's WAL and checkpoints, the engine
// state is recovered before Open returns.
//
// Every option composes with every other except Routed with Durable,
// which Open rejects with ErrBadOptions: recovery replays every logged
// record to every member, and a routed member's per-engine edge IDs
// would drift from the WAL sequence.
func Open(cfg Config) (Engine, error) {
	fleetMode := len(cfg.Queries) > 0 || cfg.Dynamic
	switch {
	case cfg.Query != nil && fleetMode:
		return nil, errors.Join(ErrBadOptions, errors.New("set only one of Query and Queries/Dynamic"))
	case cfg.Query == nil && !fleetMode:
		return nil, errors.Join(ErrBadOptions, errors.New("one of Query and Queries/Dynamic must be set"))
	case cfg.Query != nil && cfg.Routed:
		return nil, errors.Join(ErrBadOptions, errors.New("Routed is a fleet option (set Queries or Dynamic)"))
	case cfg.Query != nil && cfg.FleetWorkers > 1:
		return nil, errors.Join(ErrBadOptions, errors.New("FleetWorkers is a fleet option (set Queries or Dynamic)"))
	case cfg.FleetWorkers < 0:
		return nil, errors.Join(ErrBadOptions, errors.New("FleetWorkers must be non-negative"))
	case cfg.EventTimeUnit < 0:
		return nil, errors.Join(ErrBadOptions, errors.New("EventTimeUnit must be non-negative"))
	}
	if fleetMode {
		return openFleet(cfg)
	}
	return openSolo(cfg)
}

// OpenFleet is Open for fleet configurations, returning the Fleet
// interface directly.
func OpenFleet(cfg Config) (Fleet, error) {
	eng, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	fl, ok := eng.(Fleet)
	if !ok {
		eng.Close()
		return nil, errors.Join(ErrBadOptions, errors.New("config does not select fleet mode (set Queries or Dynamic)"))
	}
	return fl, nil
}

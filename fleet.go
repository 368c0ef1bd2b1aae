package timingsubg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"timingsubg/internal/checkpoint"
	"timingsubg/internal/dispatch"
	"timingsubg/internal/fleetpool"
	"timingsubg/internal/graph"
	"timingsubg/internal/router"
	"timingsubg/internal/stats"
	"timingsubg/internal/wal"
)

// fleetEngine is the one engine implementation behind Open: several
// named member engines over one shared stream — the deployment shape of
// the paper's motivating scenarios, where all of, e.g., Verizon's ten
// attack patterns are monitored at once. A single-query engine is a
// fleet of one (solo). Routing, dynamics, durability, per-member
// adaptivity and sharded execution are orthogonal options of this one
// type.
//
// # Concurrency
//
// Feed and FeedBatch run the embedded ingest pipeline, which holds its
// gate — a side of the roster lock mu — across validate → log →
// execute; the two modes differ in the gate and the executor.
//
// Sequential mode (FleetWorkers <= 1): the gate is mu's exclusive side
// and the executor is the inline loop (runInline over dispatchLocked),
// so Feed, FeedBatch, Checkpoint and Close mutate engine state under
// the exclusive roster lock and must be serialized by the caller; the
// read accessors (Stats, Names, HasQuery, CurrentMatches) may run
// concurrently with them under the read lock.
//
// Sharded mode (FleetWorkers > 1): members are partitioned across N
// shards by fl.pool, each shard guarded by its own shardMu and
// evaluated by a pinned worker; the gate is mu's read side and the
// executor is fanOut. The protocol:
//
//   - Feeds hold mu.RLock (roster + WAL stability) and the shard
//     workers take their shard's lock; a barrier per call preserves the
//     contract that a feed's effects are complete when it returns.
//   - Samplers (Stats, CurrentMatches, …) hold mu.RLock plus one shard
//     lock at a time, so sampling never stops ingest on the other
//     shards.
//   - Roster mutators (AddQuery, RemoveQuery, Checkpoint, Close) hold
//     mu.Lock, which excludes all shard activity because every shard
//     mutation happens inside a feed's read-critical section. They are
//     therefore safe to call concurrently with feeding — no quiescing.
type fleetEngine struct {
	// ingest is the fleet's feed pipeline: the shared WAL, the fleet
	// stream clock (clock), the edges-offered counter (fed) and the
	// closed flag live there.
	ingest

	mu      sync.RWMutex
	members []*single // nil entries are retired slots, reusable by AddQuery
	names   []string  // "" for retired slots
	groups  []string  // per-slot QuerySpec.Group ("" = ungrouped)
	live    int       // number of non-nil members
	route   *router.Router

	// groupDets holds one shared detection histogram per declared
	// member group (QuerySpec.Group) — the per-tenant attribution
	// behind Stats.Groups. Histograms are cumulative and never removed:
	// a group's detection history survives its members' retirement,
	// exactly as the fleet-wide pipeline histograms survive roster
	// churn. Guarded by groupMu because members are constructed outside
	// the roster lock.
	groupMu   sync.Mutex
	groupDets map[string]*stats.AtomicHistogram

	// disp is the fleet's results plane: every member publishes into
	// it under its query name, so one Subscribe call observes the
	// whole roster (filtered or not). Members on different shards
	// publish concurrently; the dispatcher serializes per
	// subscription.
	disp *dispatch.Dispatcher

	// Sharded execution state (nil/empty in sequential mode).
	pool      *fleetpool.Pool
	shardMu   []sync.Mutex
	allShards []int
	// Feeder-owned dispatch scratch — Feed/FeedBatch are serialized by
	// the Engine contract, so one set of buffers suffices.
	shardErr   []shardError
	routeWork  [][]routedItem
	workShards []int

	routed   atomic.Int64 // engine feeds actually performed (routed mode)
	possible atomic.Int64 // Σ per-edge live fleet size (routed mode denominator)

	// anyAdaptive records whether any member composes the reoptimizer
	// (drives the Stats.Adaptive capability flag).
	anyAdaptive bool

	// Config-level defaults inherited by specs that leave them zero.
	defaults Config

	// replayed counts the WAL records the most recent open replayed to
	// at least one member (those at or above the slowest member cursor).
	replayed int64
}

// shardError is one shard's first member feed error and the batch
// position of the edge that raised it.
type shardError struct {
	edge int
	err  error
}

// routedItem is one (edge, member) evaluation in a shard's work list.
type routedItem struct {
	edge int // index into the batch
	slot int // member slot
}

// memberOptions merges the fleet defaults under a spec's own Options.
func (fl *fleetEngine) memberOptions(spec QuerySpec) Options {
	o := spec.Options
	if o.Window == 0 && o.CountWindow == 0 {
		o.Window, o.CountWindow = fl.defaults.Window, fl.defaults.CountWindow
	}
	if o.Storage == MSTree {
		o.Storage = fl.defaults.Storage
	}
	return o
}

// memberAdaptivity resolves a spec's adaptivity: its own setting, else
// the fleet-wide default.
func (fl *fleetEngine) memberAdaptivity(spec QuerySpec) *Adaptivity {
	if spec.Adaptive != nil {
		return spec.Adaptive
	}
	return fl.defaults.Adaptive
}

// newMember builds one member engine over validated spec options,
// publishing its matches under its query name into the fleet's results
// plane. The member shares the fleet's stage pipeline, so every
// member's join/expiry/dispatch work lands in one fleet-wide view, and
// the fleet's arrival clock, so detection latency is measured from the
// fleet feed boundary (queue wait included). A private detection
// histogram gives it its per-query attribution; fleetDet keeps the
// fleet-wide aggregate whole.
func (fl *fleetEngine) newMember(spec QuerySpec) *single {
	var mo *obs
	if o := fl.obs; o != nil {
		mo = &obs{
			pipe: o.pipe, det: &stats.AtomicHistogram{}, fleetDet: &o.pipe.Detection,
			arrival: o.arrival, eventUnitNs: o.eventUnitNs, slowNs: o.slowNs, onSlow: o.onSlow,
		}
		if spec.Group != "" {
			mo.groupDet = fl.groupHist(spec.Group)
		}
	}
	en := newSingle(spec.Query, fl.memberOptions(spec), fl.memberAdaptivity(spec), mo)
	en.disp, en.pubName = fl.disp, spec.Name
	return en
}

// groupHist returns group's shared detection histogram, creating it on
// first use. Safe to call without the roster lock (AddQuery constructs
// members before taking it).
func (fl *fleetEngine) groupHist(group string) *stats.AtomicHistogram {
	fl.groupMu.Lock()
	defer fl.groupMu.Unlock()
	if fl.groupDets == nil {
		fl.groupDets = make(map[string]*stats.AtomicHistogram)
	}
	h, ok := fl.groupDets[group]
	if !ok {
		h = &stats.AtomicHistogram{}
		fl.groupDets[group] = h
	}
	return h
}

// checkName admits a caller-chosen query name: non-empty (the unnamed
// query is a single-query engine's), not already taken, and — in
// durable mode, where it becomes a directory under Dir/ck/ — path-safe.
func checkName(name string, taken, durable bool) error {
	switch {
	case name == "":
		return fmt.Errorf("timingsubg: query name must be non-empty: %w", ErrBadOptions)
	case taken:
		return fmt.Errorf("timingsubg: duplicate query name %q: %w", name, ErrBadOptions)
	case durable && (name == "." || name == ".." || strings.ContainsAny(name, "/\\")):
		// "." and ".." would alias (and on removal, destroy) other state.
		return fmt.Errorf("timingsubg: query name %q must be non-empty and path-safe: %w", name, ErrBadOptions)
	}
	return nil
}

// validateFleetSpec checks one member's option combination after the
// fleet defaults are merged in, under the fleet's durability and
// routing. A named member's error carries its name; the unnamed member
// of a single-query engine reports the bare option error.
func (fl *fleetEngine) validateFleetSpec(spec QuerySpec) error {
	o := fl.memberOptions(spec)
	var msg string
	switch {
	case spec.Query == nil:
		msg = "query must be non-nil"
	case o.Window > 0 && o.CountWindow > 0:
		msg = "set only one of Window and CountWindow"
	case o.Window <= 0 && o.CountWindow <= 0:
		msg = "one of Window and CountWindow must be positive"
	case fl.defaults.Durable != nil && o.CountWindow > 0:
		msg = "persistent mode supports time-based windows only"
	case fl.route != nil && o.CountWindow > 0:
		return fmt.Errorf("timingsubg: query %q: routing requires time-based windows (count windows measure fed edges): %w",
			spec.Name, ErrBadOptions)
	default:
		return nil
	}
	err := errors.Join(ErrBadOptions, errors.New(msg))
	if spec.Name == "" {
		return err
	}
	return fmt.Errorf("timingsubg: query %q: %w", spec.Name, err)
}

// openFleet builds a fleet engine from cfg; see Open.
func openFleet(cfg Config) (*fleetEngine, error) {
	if len(cfg.Queries) == 0 && !cfg.Dynamic {
		return nil, fmt.Errorf("timingsubg: no queries: %w", ErrBadOptions)
	}
	if cfg.Durable != nil && cfg.Routed {
		// Recovery replay fans every logged record to every member (and
		// a routed member's per-engine edge IDs would drift from the WAL
		// sequence), so a routed fleet cannot recover deterministically.
		// The durable fleet broadcasts.
		return nil, errors.Join(ErrBadOptions, errors.New("durable fleets broadcast: Routed does not compose with Durable"))
	}
	seen := map[string]bool{}
	for _, spec := range cfg.Queries {
		if err := checkName(spec.Name, seen[spec.Name], cfg.Durable != nil); err != nil {
			return nil, err
		}
		seen[spec.Name] = true
	}
	return newFleet(cfg, cfg.Queries)
}

// newFleet builds a fleet of specs under cfg, recovering durable state
// when cfg.Durable is set. The specs' names are already admitted.
func newFleet(cfg Config, specs []QuerySpec) (*fleetEngine, error) {
	fl := &fleetEngine{
		defaults: cfg,
		disp:     dispatch.New(),
	}
	if !cfg.DisableMetrics {
		fl.obs = newObs(stats.NewPipeline(), int64(cfg.EventTimeUnit), int64(cfg.SlowOpThreshold), cfg.OnSlowOp)
	}
	if sink := configSink(cfg); sink != nil {
		fl.disp.SubscribeFunc(sink)
	}
	fl.clock.Store(int64(minTimestamp))
	fl.checkpoint = fl.Checkpoint
	if cfg.Routed {
		fl.route = router.New()
	}
	for _, spec := range specs {
		if err := fl.validateFleetSpec(spec); err != nil {
			return nil, err
		}
	}
	if cfg.FleetWorkers > 1 {
		fl.pool = fleetpool.New(cfg.FleetWorkers)
		if fl.obs != nil {
			fl.pool.WaitHist = &fl.obs.pipe.QueueWait
			fl.pool.ExecHist = &fl.obs.pipe.ShardExec
		}
		fl.shardMu = make([]sync.Mutex, cfg.FleetWorkers)
		fl.allShards = make([]int, cfg.FleetWorkers)
		for s := range fl.allShards {
			fl.allShards[s] = s
		}
		fl.shardErr = make([]shardError, cfg.FleetWorkers)
		fl.routeWork = make([][]routedItem, cfg.FleetWorkers)
		fl.workShards = make([]int, 0, cfg.FleetWorkers)
		fl.gate, fl.exec = fl.mu.RLocker(), fl.fanOut
	} else {
		step := fl.dispatchLocked
		fl.gate = &fl.mu
		fl.exec = func(batch []Edge, start time.Time) (int, error) {
			return runInline(fl.obs, batch, start, step)
		}
	}
	if cfg.Durable != nil {
		if err := fl.openDurable(*cfg.Durable, specs); err != nil {
			if fl.pool != nil {
				fl.pool.Close()
			}
			return nil, err
		}
		return fl, nil
	}
	// The in-memory join; the durable one is pinned by checkpoints (see
	// openDurable and AddQuery).
	for _, spec := range specs {
		fl.installLocked(spec, fl.newMember(spec))
	}
	return fl, nil
}

// installLocked places en in a free slot (or a new one) and, in sharded
// mode, assigns the slot to the least-loaded shard.
func (fl *fleetEngine) installLocked(spec QuerySpec, en *single) int {
	slot := -1
	for i, m := range fl.members {
		if m == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = len(fl.members)
		fl.members = append(fl.members, nil)
		fl.names = append(fl.names, "")
		fl.groups = append(fl.groups, "")
	}
	fl.members[slot] = en
	fl.names[slot] = spec.Name
	fl.groups[slot] = spec.Group
	fl.live++
	if en.adapt != nil {
		fl.anyAdaptive = true
	}
	if fl.route != nil {
		fl.route.Add(slot, spec.Query)
	}
	if fl.pool != nil {
		fl.pool.Assign(slot)
	}
	return slot
}

// ckDir returns the named query's checkpoint directory.
func (fl *fleetEngine) ckDir(name string) string {
	return checkpoint.Dir(fl.dur.Dir, name)
}

// openDurable opens the shared WAL and recovers every spec'd query:
// each from its own checkpoint, then one replay pass over the shared
// log suffix. Queries with no checkpoint join from the oldest retained
// log record: history reclaimed by earlier checkpoints is gone, exactly
// as a newly deployed pattern cannot see traffic that predates its
// deployment.
func (fl *fleetEngine) openDurable(dur Durability, specs []QuerySpec) error {
	if err := fl.openLog(dur); err != nil {
		return err
	}
	log := fl.log
	fail := func(err error) error {
		log.Close()
		return err
	}
	logStart, err := wal.FirstSeq(fl.dur.Dir)
	if err != nil {
		return fail(err)
	}

	// Per-query recovery state: each member's replay cursor. minFrom is
	// the slowest one; no member replays a record below it.
	froms := make([]int64, len(specs))
	minFrom := int64(math.MaxInt64)
	lastT := minTimestamp
	var maxNext int64
	for i, spec := range specs {
		o := fl.memberOptions(spec)
		ck, haveCk, err := checkpoint.Load(fl.ckDir(spec.Name))
		if err != nil {
			return fail(err)
		}
		if haveCk && ck.Window != o.Window {
			err := fmt.Errorf("checkpoint window %d != configured window %d: %w", ck.Window, o.Window, ErrBadOptions)
			return fail(fmt.Errorf("timingsubg: %w", queryErr(spec.Name, err)))
		}
		en := fl.newMember(spec)
		if haveCk {
			en.restoreCheckpoint(ck)
			froms[i] = ck.NextSeq
			if ck.NextSeq > maxNext {
				maxNext = ck.NextSeq
			}
		} else {
			// A new query joins at the retained log horizon.
			en.stream = graph.RestoreStream(o.Window, nil, graph.EdgeID(logStart))
			froms[i] = logStart
		}
		minFrom = min(minFrom, froms[i])
		fl.installLocked(spec, en)
		// The stream clock resumes from the newest checkpointed edge;
		// WAL replay below advances it further if a suffix exists.
		if lt := en.stream.LastTime(); lt > lastT {
			lastT = lt
		}
	}
	if len(specs) > 0 {
		// The slowest member cursor gates truncation from the start: no
		// record a member still needs to replay can be reclaimed. SkipTo
		// below may raise the gate further when the whole log tail was
		// lost behind the newest checkpoint.
		log.SetCheckpointLSN(minFrom)
	}
	if err := log.SkipTo(maxNext); err != nil {
		return fail(err)
	}

	// One replay pass over the retained log: each record goes to every
	// member whose cursor has reached it. The stream clock (clock) must
	// recover the newest logged timestamp, or a post-restart ingest
	// could reuse one and break the log's monotonicity. Timestamps rise
	// with LSN and a durable fleet broadcasts, so a restored window that
	// holds any edge holds its member's newest, at or after record
	// minFrom-1: the walk then starts at the slowest cursor. Only when
	// no window holds an edge does it start at the retained horizon, to
	// recover the clock from records no member needs.
	from := minFrom
	if lastT == minTimestamp {
		from = logStart
	}
	end, err := wal.Replay(fl.dur.Dir, from, func(seq int64, e graph.Edge) error {
		for i, m := range fl.members {
			if seq < froms[i] {
				continue
			}
			if err := m.replayRecord(seq, e); err != nil {
				return queryErr(fl.names[i], err)
			}
		}
		if e.Time > lastT {
			lastT = e.Time
		}
		if seq >= minFrom {
			fl.replayed++
		}
		return nil
	})
	if err != nil {
		return fail(fmt.Errorf("timingsubg: recovery replay: %w", err))
	}
	if end != log.Seq() {
		return fail(fmt.Errorf("timingsubg: recovery replay ended at %d, log at %d", end, log.Seq()))
	}
	fl.clock.Store(int64(lastT))
	fl.walSeq.Store(log.Seq())
	return nil
}

// queryErr attributes a member error to its query by name. The unnamed
// member of a single-query engine reports the bare error.
func queryErr(name string, err error) error {
	if name == "" {
		return err
	}
	return fmt.Errorf("query %q: %w", name, err)
}

// AddQuery implements Fleet. The new query's window starts empty: it
// sees only edges fed after it joins. In durable mode the join point is
// pinned with an initial checkpoint, and any stale checkpoint left
// under the name by a previously removed query is discarded. On a
// sharded fleet the new member lands on the least-loaded shard, and the
// call is safe to make while the stream is being fed.
func (fl *fleetEngine) AddQuery(spec QuerySpec) error {
	if err := fl.validateFleetSpec(spec); err != nil {
		return err
	}
	o := fl.memberOptions(spec)
	// Engine construction (decomposition, cost model) is the expensive
	// part and needs no fleet state — do it before taking the roster
	// lock so a concurrent stream stalls as briefly as possible.
	en := fl.newMember(spec)
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.closed.Load() {
		return ErrClosed
	}
	if err := checkName(spec.Name, fl.indexLocked(spec.Name) >= 0, fl.dur != nil); err != nil {
		return err
	}
	if fl.dur != nil {
		// A checkpoint under this name can only be stale (from a removed
		// or never-reopened query); joining at the tail supersedes it.
		if err := os.RemoveAll(fl.ckDir(spec.Name)); err != nil {
			return fmt.Errorf("timingsubg: query %q: discard stale checkpoint: %w", spec.Name, err)
		}
		en.stream = graph.RestoreStream(o.Window, nil, graph.EdgeID(fl.log.Seq()))
		// An initial checkpoint pins the join point durably: without it, a
		// crash before the first periodic checkpoint would make recovery
		// treat this query as brand new and replay it from the retained
		// log horizon — pre-join traffic it must never see.
		if err := checkpoint.Save(fl.ckDir(spec.Name), checkpoint.Checkpoint{
			NextSeq: fl.log.Seq(),
			Window:  o.Window,
		}); err != nil {
			return fmt.Errorf("timingsubg: query %q: initial checkpoint: %w", spec.Name, err)
		}
	}
	fl.installLocked(spec, en)
	return nil
}

// RemoveQuery implements Fleet: the member is drained and its slot
// freed for reuse; in durable mode its checkpoints are deleted (the
// shared log is untouched — other queries may still need it). On a
// sharded fleet the member's shard sheds its load, making it the
// preferred target of the next AddQuery.
func (fl *fleetEngine) RemoveQuery(name string) error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.closed.Load() {
		return ErrClosed
	}
	i := fl.indexLocked(name)
	if i < 0 {
		return fmt.Errorf("timingsubg: unknown query %q: %w", name, ErrBadOptions)
	}
	fl.members[i] = nil
	fl.names[i] = ""
	fl.groups[i] = ""
	fl.live--
	if fl.route != nil {
		fl.route.Remove(i)
	}
	if fl.pool != nil {
		fl.pool.Release(i)
	}
	// End the subscriptions that filtered solely on retired names and
	// reset the name's delivery sequence — a later query reusing the
	// name starts a fresh sequence, exactly as a durable restart (which
	// discards the checkpoint below) would produce. No publish can race
	// this: feeds are excluded by the exclusive roster lock.
	fl.disp.Retire(name, func(q string) bool { return fl.indexLocked(q) >= 0 })
	if fl.dur != nil {
		return os.RemoveAll(fl.ckDir(name))
	}
	return nil
}

// Subscribe implements Engine: one subscription observes any subset of
// the roster (SubscribeOptions.Queries), or all of it, including
// queries added later.
func (fl *fleetEngine) Subscribe(opts SubscribeOptions) (*Subscription, error) {
	return subscribeOn(fl.disp, opts)
}

// indexLocked returns the slot of the live query named name, or -1.
func (fl *fleetEngine) indexLocked(name string) int {
	for i, n := range fl.names {
		if n == name && fl.members[i] != nil {
			return i
		}
	}
	return -1
}

// HasQuery implements Fleet.
func (fl *fleetEngine) HasQuery(name string) bool {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	return fl.indexLocked(name) >= 0
}

// Names implements Fleet.
func (fl *fleetEngine) Names() []string {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	out := make([]string, 0, fl.live)
	for i, n := range fl.names {
		if fl.members[i] != nil {
			out = append(out, n)
		}
	}
	return out
}

// dispatchLocked is the sequential fleet's inline executor step: it
// fans one edge out to the members (or, in routed mode, to the
// interested members) on the feeder. Caller holds the exclusive roster
// lock.
func (fl *fleetEngine) dispatchLocked(e Edge) error {
	if fl.route != nil {
		// The saved-work denominator accrues the fleet size *as of this
		// edge* — queries come and go, so a cumulative counter is the
		// only way the ratio stays meaningful.
		fl.possible.Add(int64(fl.live))
		var ferr error
		fl.route.Route(e, func(i int) {
			if ferr != nil || fl.members[i] == nil {
				return
			}
			fl.routed.Add(1)
			if _, err := fl.members[i].memberFeed(e); err != nil {
				ferr = queryErr(fl.names[i], err)
			}
		})
		return ferr
	}
	for i, m := range fl.members {
		if m == nil {
			continue
		}
		if _, err := m.memberFeed(e); err != nil {
			return queryErr(fl.names[i], err)
		}
	}
	return nil
}

// fanOut is the sharded executor: it fans a validated, logged batch out
// to the shards and waits for all of them — the per-call barrier.
// Caller holds the roster read lock. Each member sees its edges in
// batch order because a member lives on exactly one shard and a shard
// evaluates its work list sequentially. Shards interleave the batch's
// edges, so per-edge ingest attribution is not possible here: the batch
// is one ingest observation and the arrival clock holds the batch entry
// time (detection latency is then measured from batch entry — a
// documented approximation of the sharded fast path). Member feed
// errors are structurally unreachable — the pipeline validated
// monotonicity at the fleet boundary, and ErrOutOfOrder is the only
// per-edge feed error — but are still collected and surfaced
// defensively.
func (fl *fleetEngine) fanOut(batch []Edge, start time.Time) (int, error) {
	if fl.obs != nil {
		fl.obs.arrival.Store(start.UnixNano())
	}
	for s := range fl.shardErr {
		fl.shardErr[s] = shardError{}
	}
	if fl.route == nil {
		fl.pool.Run(fl.allShards, func(s int) {
			fl.shardMu[s].Lock()
			defer fl.shardMu[s].Unlock()
			for i := range batch {
				for _, slot := range fl.pool.Handles(s) {
					m := fl.members[slot]
					if m == nil {
						continue
					}
					if _, err := m.memberFeed(batch[i]); err != nil {
						fl.shardErr[s] = shardError{i, fmt.Errorf("query %q: %w", fl.names[slot], err)}
						return
					}
				}
			}
		})
	} else {
		// Route on the feeder goroutine (Route mutates router
		// bookkeeping and the saved-work counters), building each
		// shard's work list in edge order.
		work := fl.routeWork
		for s := range work {
			work[s] = work[s][:0]
		}
		for i := range batch {
			fl.possible.Add(int64(fl.live))
			fl.route.Route(batch[i], func(slot int) {
				if fl.members[slot] == nil {
					return
				}
				s, ok := fl.pool.ShardOf(slot)
				if !ok {
					return
				}
				fl.routed.Add(1)
				work[s] = append(work[s], routedItem{edge: i, slot: slot})
			})
		}
		shards := fl.workShards[:0]
		for s := range work {
			if len(work[s]) > 0 {
				shards = append(shards, s)
			}
		}
		fl.workShards = shards
		fl.pool.Run(shards, func(s int) {
			fl.shardMu[s].Lock()
			defer fl.shardMu[s].Unlock()
			for _, it := range work[s] {
				if _, err := fl.members[it.slot].memberFeed(batch[it.edge]); err != nil {
					fl.shardErr[s] = shardError{it.edge, fmt.Errorf("query %q: %w", fl.names[it.slot], err)}
					return
				}
			}
		})
	}
	if fl.obs != nil {
		fl.obs.pipe.Ingest.Observe(time.Since(start))
	}
	for _, se := range fl.shardErr {
		if se.err != nil {
			return se.edge, se.err
		}
	}
	return len(batch), nil
}

// Feed implements Engine. In durable mode the returned ID is the WAL
// sequence number; otherwise it is the fleet-level arrival index. (In
// routed mode member engines assign their own per-engine IDs, so the
// same data edge may carry different IDs in matches of different
// queries.)
func (fl *fleetEngine) Feed(e Edge) (EdgeID, error) { return fl.feedEdge(e) }

// FeedBatch implements Engine: one closed-check, one WAL write and at
// most one sync, one lock acquisition and one maintenance tick for the
// whole batch. On a sharded fleet the batch is validated and logged
// once up front, then fanned out to all shards concurrently.
func (fl *fleetEngine) FeedBatch(batch []Edge) (int, error) {
	_, n, err := fl.feed(batch, opFeedBatch)
	return n, err
}

// Checkpoint forces per-query checkpoints now and reclaims WAL segments
// no query needs anymore. It is a no-op for in-memory fleets, and for
// closed fleets (Close wrote the final checkpoint; nothing newer can
// exist).
func (fl *fleetEngine) Checkpoint() error {
	if fl.dur == nil {
		return nil
	}
	// Exclusive: Sync/TruncateFront mutate the log, and the member walk
	// must not observe a half-applied feed (shard mutations all happen
	// inside a feed's read-critical section).
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.closed.Load() {
		return nil
	}
	return fl.checkpointLocked()
}

func (fl *fleetEngine) checkpointLocked() error {
	// Every member gets a durable checkpoint at the same LSN, so that
	// LSN is the shared log's new truncation gate.
	return fl.checkpointLog(func(next int64) error {
		for i, m := range fl.members {
			if m == nil {
				continue
			}
			if err := m.saveCheckpoint(fl.ckDir(fl.names[i]), next); err != nil {
				return fmt.Errorf("timingsubg: query %q: %w", fl.names[i], err)
			}
		}
		return nil
	})
}

// Run implements Engine: consume until the channel closes or ctx is
// cancelled, close the engine, and wrap any feed error with the
// offending edge's stream index. A Close failure (e.g. the final
// durable checkpoint) surfaces when the loop itself finished cleanly —
// it must not be swallowed.
func (fl *fleetEngine) Run(ctx context.Context, edges <-chan Edge) (n int64, err error) {
	defer func() {
		if cerr := fl.Close(); err == nil {
			err = cerr
		}
	}()
	for {
		select {
		case <-ctx.Done():
			return n, ctx.Err()
		case e, ok := <-edges:
			if !ok {
				return n, nil
			}
			if _, err := fl.Feed(e); err != nil {
				return n, fmt.Errorf("timingsubg: edge %d: %w", n, err)
			}
			n++
		}
	}
}

// Close implements Engine: drain every member, stop the shard workers
// and, in durable mode, checkpoint and close the shared WAL. Idempotent,
// and on a sharded fleet safe to call concurrently with feeding (feeds
// racing Close either complete first or return ErrClosed).
func (fl *fleetEngine) Close() error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.closed.Load() {
		return nil
	}
	fl.closed.Store(true)
	if fl.pool != nil {
		fl.pool.Close()
	}
	// Members are drained: no further publishes. Ending the
	// subscriptions closes every consumer channel.
	fl.disp.Close()
	return fl.closeLog(fl.checkpointLocked)
}

// routedFraction reports, in routed mode, the ratio of engine feeds
// performed to engine feeds a naive fan-out would have performed
// (summing the live fleet size at each edge, so the ratio stays exact
// across AddQuery/RemoveQuery) — the dispatch work saved by routing.
// It returns 1 in unrouted mode.
func (fl *fleetEngine) routedFraction() float64 {
	possible := fl.possible.Load()
	if fl.route == nil || possible == 0 {
		return 1
	}
	return float64(fl.routed.Load()) / float64(possible)
}

// withMemberLocked runs fn with slot's member evaluation state stable:
// under the member's shard lock in sharded mode (the caller already
// holds the roster read lock, which pins the roster itself).
func (fl *fleetEngine) withMemberLocked(slot int, fn func()) {
	if fl.pool != nil {
		if s, ok := fl.pool.ShardOf(slot); ok {
			fl.shardMu[s].Lock()
			defer fl.shardMu[s].Unlock()
		}
	}
	fn()
}

// stats aggregates member snapshots; memberStats selects the cheap or
// walking per-member sampler. On a sharded fleet, members are sampled
// one shard at a time — sampling shard s waits only for shard s's
// in-flight evaluation, so ingest on the other shards continues.
func (fl *fleetEngine) stats(memberStats func(*single) Stats) Stats {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	st := Stats{
		Fed:                   fl.fed.Load(),
		Replayed:              fl.replayed,
		RoutedFraction:        fl.routedFraction(),
		LastTime:              sinceStart(Timestamp(fl.clock.Load())),
		Adaptive:              fl.anyAdaptive,
		Durable:               fl.log != nil,
		Fleet:                 true,
		Subscriptions:         fl.disp.Subscribers(),
		SubscriptionDelivered: fl.disp.Delivered(),
		SubscriptionDropped:   fl.disp.Dropped(),
		Queries:               make(map[string]Stats, fl.live),
	}
	if fl.log != nil {
		st.WALSeq = fl.walSeq.Load()
		st.WALSyncs = fl.log.Syncs()
	}
	if fl.obs != nil {
		st.Stages = fl.obs.pipe.Snapshot()
		st.WatermarkLagNs = watermarkLag(st.LastTime, fl.obs.eventUnitNs)
		det := fl.obs.pipe.Detection.Snapshot()
		st.Detection = &det
	}
	add := func(slot int, m *single) {
		// A member snapshot carries no delivery counters (the fleet owns
		// the results plane), so the dispatcher totals above stay intact.
		ms := memberStats(m)
		stats.Sum(&st, &ms)
		// Per-query delivery attribution comes from the shared
		// dispatcher — members publish into the fleet's results plane.
		ms.SubscriptionDelivered, ms.SubscriptionDropped = fl.disp.QueryCounts(fl.names[slot])
		st.Queries[fl.names[slot]] = ms
		if g := fl.groups[slot]; g != "" {
			if st.Groups == nil {
				st.Groups = make(map[string]Stats)
			}
			gs := st.Groups[g]
			stats.Sum(&gs, &ms)
			st.Groups[g] = gs
		}
	}
	walk := func() {
		if fl.pool == nil {
			for i, m := range fl.members {
				if m == nil {
					continue
				}
				add(i, m)
			}
			return
		}
		st.FleetWorkers = len(fl.shardMu)
		st.ShardMembers = fl.pool.Load()
		if fl.obs != nil {
			st.ShardBusyNs = fl.pool.Busy()
		}
		for s := range fl.shardMu {
			fl.shardMu[s].Lock()
			for _, slot := range fl.pool.Handles(s) {
				if m := fl.members[slot]; m != nil {
					add(slot, m)
				}
			}
			fl.shardMu[s].Unlock()
		}
	}
	walk()
	// Every declared group appears in the snapshot, live members or
	// not: the shared detection histogram is cumulative, so a group
	// whose queries have all retired still reports its history.
	fl.groupMu.Lock()
	for g, h := range fl.groupDets {
		gs := st.Groups[g] // zero value for fully retired groups
		det := h.Snapshot()
		gs.Detection = &det
		if st.Groups == nil {
			st.Groups = make(map[string]Stats)
		}
		st.Groups[g] = gs
	}
	fl.groupMu.Unlock()
	return st
}

// Stats implements Engine: the fleet aggregate plus one per-member
// snapshot per live query.
func (fl *fleetEngine) Stats() Stats {
	return fl.stats((*single).Stats)
}

// statsFast is the counter-only snapshot (no partial-match walks).
func (fl *fleetEngine) statsFast() Stats {
	return fl.stats((*single).statsFast)
}

// CurrentMatches implements Engine: every live member's standing
// matches, in registration-slot order.
func (fl *fleetEngine) CurrentMatches(fn func(*Match) bool) {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	stop := false
	for slot, m := range fl.members {
		if m == nil || stop {
			continue
		}
		fl.withMemberLocked(slot, func() {
			m.CurrentMatches(func(mm *Match) bool {
				if !fn(mm) {
					stop = true
					return false
				}
				return true
			})
		})
	}
}

// Compile-time interface checks.
var (
	_ Engine = (*solo)(nil)
	_ Engine = (*fleetEngine)(nil)
	_ Fleet  = (*fleetEngine)(nil)
)

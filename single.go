package timingsubg

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"timingsubg/internal/checkpoint"
	"timingsubg/internal/core"
	"timingsubg/internal/dispatch"
	"timingsubg/internal/graph"
	"timingsubg/internal/query"
	"timingsubg/internal/wal"
)

// single is the one single-query engine implementation behind Open (and
// behind each fleet member): a core matching engine plus a window, with
// adaptivity and durability composed on as orthogonal options rather
// than distinct wrapper types.
type single struct {
	// ingest is the feed pipeline of a standalone engine (its executor
	// is the inline push loop). A fleet member's stays idle — the fleet
	// owns the pipeline, the WAL and the closed-check, and reaches the
	// member through memberFeed — except for obs and the fed counter.
	ingest

	q     *Query
	opts  Options     // normalized
	adapt *Adaptivity // nil = adaptivity off; normalized copy otherwise

	stream graph.Windower
	eng    *core.Engine
	// disp is the results plane: every reported match is published to
	// it, and Subscribe attaches consumers at runtime. A standalone
	// engine owns its dispatcher (ownsDisp); a fleet member shares the
	// fleet's and publishes under its query name (pubName).
	disp     *dispatch.Dispatcher
	pubName  string
	ownsDisp bool
	// muted suppresses publication while derived state is rebuilt from
	// edges whose matches were already reported (checkpoint recovery,
	// adaptive rebuilds).
	muted bool

	// Adaptivity state.
	picked     []*query.TCSubquery
	sinceCheck int
	rebuilds   atomic.Int64

	// Durability state.
	replayed int64

	// Counter baselines translate engine counters — which restart from
	// zero on recovery and on adaptive rebuilds — into durable totals:
	// total = base + engine - engine0. They are atomics so a fleet
	// stats sampler on one shard never races an adaptive rebuild of a
	// member on another (the sharded fleet samples counters without a
	// global stop-the-world lock).
	baseMatches   atomic.Int64
	baseDiscarded atomic.Int64
	engMatches0   atomic.Int64
	engDiscarded0 atomic.Int64

	// Join-probe counter baselines: unlike matches, the joins an
	// adaptive rebuild re-performs while re-feeding the window are real
	// work, so totals are base + engine with no engine0 subtraction.
	baseJoinScanned    atomic.Int64
	baseJoinCandidates atomic.Int64

	// Expiry-plane baselines, accumulated like the join-probe ones
	// (rebuild re-feeds never slide the window, so the fresh engine
	// restarts both at zero).
	baseExpiryBatches atomic.Int64
	baseExpiryEvicted atomic.Int64
}

// validateSingle checks one engine's option combination — a standalone
// engine's, or (via validateFleetSpec) one fleet member's under the
// fleet's durability.
func validateSingle(q *Query, o Options, dur *Durability) error {
	switch {
	case q == nil:
		return errors.Join(ErrBadOptions, errors.New("query must be non-nil"))
	case o.Window > 0 && o.CountWindow > 0:
		return errors.Join(ErrBadOptions, errors.New("set only one of Window and CountWindow"))
	case o.Window <= 0 && o.CountWindow <= 0:
		return errors.Join(ErrBadOptions, errors.New("one of Window and CountWindow must be positive"))
	case dur != nil && o.CountWindow > 0:
		return errors.Join(ErrBadOptions, errors.New("persistent mode supports time-based windows only"))
	}
	return nil
}

// normAdaptivity returns a defaulted copy, or nil when a is nil.
func normAdaptivity(a *Adaptivity) *Adaptivity {
	if a == nil {
		return nil
	}
	n := *a
	if n.ReoptimizeEvery <= 0 {
		n.ReoptimizeEvery = 1024
	}
	if n.MinGain <= 0 {
		n.MinGain = 2.0
	}
	return &n
}

// newSingle builds a non-durable engine (or the in-memory core of a
// fleet member; durable fleets restore the member's stream afterwards,
// and every member is rebased onto the fleet's dispatcher by
// newMember). sink, when non-nil, is attached as a synchronous
// subscription — the Config.OnMatch/OnDelivery shim.
func newSingle(q *Query, o Options, adapt *Adaptivity, sink func(Delivery)) (*single, error) {
	if err := validateSingle(q, o, nil); err != nil {
		return nil, err
	}
	en := &single{q: q, opts: o, adapt: normAdaptivity(adapt), disp: dispatch.New(), ownsDisp: true}
	if o.pipe != nil {
		en.obs = newObs(o.pipe, o.eventUnitNs, o.slowOpNs, o.onSlowOp)
	}
	en.clock.Store(int64(minTimestamp))
	step := func(e Edge) error {
		_, err := en.push(e)
		return err
	}
	en.exec = func(batch []Edge, start time.Time) (int, error) {
		n, err := runInline(en.obs, batch, start, step)
		en.tickAdaptive(n)
		return n, err
	}
	en.checkpoint = en.checkpointNow
	if sink != nil {
		en.disp.SubscribeFunc(sink)
	}
	dec := o.Decomposition
	if dec == nil {
		dec = query.Decompose(q)
	}
	if en.adapt != nil {
		en.picked = append([]*query.TCSubquery(nil), dec.Subqueries...)
	}
	en.eng = en.newCoreEngine(dec)
	if o.CountWindow > 0 {
		en.stream = graph.NewCountStream(o.CountWindow)
	} else {
		en.stream = graph.NewStream(o.Window)
	}
	return en, nil
}

// openDurableSingle opens (or creates) a durable engine in dur.Dir,
// recovering the previous run's state when present: the newest
// checkpoint's window is rebuilt silently, then the WAL suffix is
// replayed live.
func openDurableSingle(q *Query, o Options, adapt *Adaptivity, dur Durability, sink func(Delivery)) (*single, error) {
	if err := validateSingle(q, o, &dur); err != nil {
		return nil, err
	}
	en, err := newSingle(q, o, adapt, sink)
	if err != nil {
		return nil, err
	}
	if err := en.openLog(dur); err != nil {
		return nil, err
	}
	if err := en.recoverState(); err != nil {
		en.log.Close()
		return nil, err
	}
	return en, nil
}

// recoverState rebuilds the previous run's state from en.dur.Dir and seeds
// the pipeline's boundary clock and WAL cursor from it.
func (en *single) recoverState() error {
	ck, haveCk, err := checkpoint.Load(en.dur.Dir)
	if err != nil {
		return err
	}
	from := int64(0)
	if haveCk {
		if ck.Window != en.opts.Window {
			return fmt.Errorf("timingsubg: checkpoint window %d != configured window %d: %w",
				ck.Window, en.opts.Window, ErrBadOptions)
		}
		en.restoreCheckpoint(ck)
		// The loaded checkpoint gates truncation from the start: the log
		// may reclaim segments below its LSN and nothing above.
		en.log.SetCheckpointLSN(ck.LSN())
		// If fsync was off and the WAL tail was lost in the crash, the
		// checkpoint may be ahead of the log; fast-forward the log so
		// future sequence numbers continue at the checkpoint cursor.
		if err := en.log.SkipTo(ck.NextSeq); err != nil {
			return err
		}
		from = ck.NextSeq
	}
	end, err := wal.Replay(en.dur.Dir, from, en.replayRecord)
	if err != nil {
		return fmt.Errorf("timingsubg: recovery replay: %w", err)
	}
	if end != en.log.Seq() {
		return fmt.Errorf("timingsubg: recovery replay ended at %d, log at %d", end, en.log.Seq())
	}
	en.clock.Store(int64(en.stream.LastTime()))
	en.walSeq.Store(end)
	return nil
}

// restoreCheckpoint rebuilds derived engine state from a checkpointed
// window, silently: those matches were durably reported before the
// checkpoint.
func (en *single) restoreCheckpoint(ck checkpoint.Checkpoint) {
	en.stream = graph.RestoreStream(en.opts.Window, ck.Edges, graph.EdgeID(ck.NextSeq))
	// Seed the delivery sequence at the checkpointed match count: the
	// WAL-suffix replay then reassigns each re-reported match the same
	// sequence number it carried before the crash, which is what makes
	// SubscribeOptions.AfterSeq a restart-stable dedup cursor.
	en.disp.SeedSeq(en.pubName, ck.Matches)
	en.baseMatches.Store(ck.Matches)
	en.baseDiscarded.Store(ck.Discarded)
	en.muted = true
	for _, e := range ck.Edges {
		en.eng.Process(e, nil)
	}
	en.muted = false
	en.engMatches0.Store(en.eng.Stats().Matches.Load())
	en.engDiscarded0.Store(en.eng.Stats().Discarded.Load())
}

// replayRecord feeds one WAL-suffix record during recovery, live
// (reporting matches), and verifies the stream reassigns the sequence
// number the record had before the crash.
func (en *single) replayRecord(seq int64, e graph.Edge) error {
	id, err := en.memberFeed(graph.Edge{
		From: e.From, To: e.To,
		FromLabel: e.FromLabel, ToLabel: e.ToLabel, EdgeLabel: e.EdgeLabel,
		Time: e.Time,
	})
	if err != nil {
		return err
	}
	if int64(id) != seq {
		return fmt.Errorf("timingsubg: recovery drift: edge seq %d got ID %d", seq, id)
	}
	en.replayed++
	return nil
}

// newCoreEngine builds the core matching engine under dec, wiring the
// mute-aware publication hook. Every match is published to the
// dispatcher (core serializes reporting per engine, so per-query
// publish order is deterministic); muting covers rebuilds from edges
// whose matches were already reported, so sequence numbers advance
// exactly once per distinct match.
func (en *single) newCoreEngine(dec *Decomposition) *core.Engine {
	cfg := core.Config{
		Storage:       en.opts.Storage,
		Decomposition: dec,
		OnMatch: func(m *Match) {
			if en.muted {
				return
			}
			if o := en.obs; o != nil {
				o.onMatch(en.pubName, m, func() { en.disp.Publish(en.pubName, m) })
				return
			}
			en.disp.Publish(en.pubName, m)
		},
	}
	if en.obs != nil {
		cfg.JoinHist = &en.obs.pipe.Join
		cfg.ExpiryHist = &en.obs.pipe.Expiry
	}
	return core.New(en.q, cfg)
}

// Subscribe implements Engine.
func (en *single) Subscribe(opts SubscribeOptions) (*Subscription, error) {
	return subscribeOn(en.disp, opts)
}

// subscriptionCounters is the lock-light sampler behind
// SubscriptionCounters. Fleet members report zero — they share the
// fleet's results plane.
func (en *single) subscriptionCounters() (int, int64, int64) {
	if !en.ownsDisp {
		return 0, 0, 0
	}
	return en.disp.Subscribers(), en.disp.Delivered(), en.disp.Dropped()
}

// push advances the window and processes one edge transaction. It is
// the innermost feed step: the standalone engine's inline executor
// step, and the core of memberFeed.
func (en *single) push(e Edge) (EdgeID, error) {
	stored, expired, err := en.stream.Push(e)
	if err != nil {
		return 0, err
	}
	en.eng.ProcessBatch(stored, expired)
	return stored.ID, nil
}

// memberFeed feeds one edge from outside the engine's own pipeline — a
// fleet's fan-out, or recovery replay: push plus the per-edge share of
// the accounting the pipeline does for a standalone engine (fed,
// adaptivity cadence). No WAL and no closed-check; the caller owns both.
func (en *single) memberFeed(e Edge) (EdgeID, error) {
	id, err := en.push(e)
	if err != nil {
		return 0, err
	}
	en.fed.Add(1)
	en.tickAdaptive(1)
	return id, nil
}

// tickAdaptive advances the reoptimization cadence by n fed edges.
func (en *single) tickAdaptive(n int) {
	if en.adapt == nil {
		return
	}
	en.sinceCheck += n
	if en.sinceCheck >= en.adapt.ReoptimizeEvery {
		en.sinceCheck = 0
		en.maybeReoptimize()
	}
}

// Feed implements Engine.
func (en *single) Feed(e Edge) (EdgeID, error) { return en.feedEdge(e) }

// FeedBatch implements Engine. The WAL write and sync, the adaptivity
// check and the checkpoint cadence are amortized across the batch.
func (en *single) FeedBatch(batch []Edge) (int, error) {
	_, n, err := en.feed(batch, opFeedBatch)
	return n, err
}

// Run implements Engine.
func (en *single) Run(ctx context.Context, edges <-chan Edge) (int64, error) {
	return runLoop(ctx, edges, func(e Edge) error {
		_, err := en.Feed(e)
		return err
	}, en.Close)
}

// Close implements Engine: end the engine's own subscriptions,
// checkpoint (durable mode) and close the WAL. Idempotent. A fleet
// member shares the fleet's dispatcher and leaves it alone — the fleet
// owns its results plane.
func (en *single) Close() error {
	if en.closed.Swap(true) {
		return nil
	}
	if en.ownsDisp {
		en.disp.Close()
	}
	return en.closeLog(en.checkpointNow)
}

// checkpointNow forces a checkpoint: the WAL is synced, the in-window
// state and counters are written atomically, old checkpoints and WAL
// segments are reclaimed.
func (en *single) checkpointNow() error {
	return en.checkpointLog(func(next int64) error { return en.saveCheckpoint(en.dur.Dir, next) })
}

// saveCheckpoint writes the engine's in-window state and counters under
// dir as the checkpoint at LSN next, keeping the two newest.
func (en *single) saveCheckpoint(dir string, next int64) error {
	st, ok := en.stream.(*graph.Stream)
	if !ok {
		return errors.New("timingsubg: checkpoint requires a time-window stream")
	}
	ck := checkpoint.Checkpoint{
		NextSeq:   next,
		Window:    en.opts.Window,
		Matches:   en.matches(),
		Discarded: en.discarded(),
		Edges:     st.InWindow(),
	}
	if err := checkpoint.Save(dir, ck); err != nil {
		return err
	}
	return checkpoint.GC(dir, 2)
}

// maybeReoptimize re-scores the join order under observed cardinalities
// and rebuilds when the estimated gain clears MinGain.
func (en *single) maybeReoptimize() {
	if len(en.picked) <= 2 {
		// With k ≤ 2 there is only one join shape; order can only swap
		// the seed pair, which EstimateOrderCost scores identically.
		return
	}
	obs := en.eng.SubCardinalities()
	byMask := make(map[uint64]float64, len(obs))
	for i, sub := range en.eng.Decomposition().Subqueries {
		byMask[sub.Mask] = float64(obs[i]) + 1 // +1 smoothing
	}
	card := func(s *query.TCSubquery) float64 { return byMask[s.Mask] }

	current := query.EstimateOrderCost(en.eng.Decomposition(), card)
	best := query.OrderByCost(en.q, en.picked, card)
	bestCost := query.EstimateOrderCost(best, card)
	if bestCost <= 0 || current/bestCost < en.adapt.MinGain {
		return
	}
	if sameOrder(best, en.eng.Decomposition()) {
		return
	}
	en.rebuild(best)
}

func sameOrder(x, y *Decomposition) bool {
	if len(x.Subqueries) != len(y.Subqueries) {
		return false
	}
	for i := range x.Subqueries {
		if x.Subqueries[i].Mask != y.Subqueries[i].Mask {
			return false
		}
	}
	return true
}

// rebuild replaces the engine with one using dec, re-feeding the
// in-window edges with match reporting muted. Counter baselines absorb
// the restart so totals keep accumulating.
func (en *single) rebuild(dec *Decomposition) {
	en.baseMatches.Store(en.matches())
	en.baseDiscarded.Store(en.discarded())
	en.baseJoinScanned.Add(en.eng.Stats().JoinScanned.Load())
	en.baseJoinCandidates.Add(en.eng.Stats().JoinCandidates.Load())
	en.baseExpiryBatches.Add(en.eng.Stats().ExpiryBatches.Load())
	en.baseExpiryEvicted.Add(en.eng.Stats().ExpiryEvicted.Load())
	en.eng = en.newCoreEngine(dec)
	en.muted = true
	for _, e := range en.stream.InWindow() {
		en.eng.Process(e, nil)
	}
	en.muted = false
	en.engMatches0.Store(en.eng.Stats().Matches.Load())
	en.engDiscarded0.Store(en.eng.Stats().Discarded.Load())
	en.rebuilds.Add(1)
}

// matches and discarded fold the counter baselines into durable totals.
func (en *single) matches() int64 {
	return en.baseMatches.Load() + en.eng.Stats().Matches.Load() - en.engMatches0.Load()
}

func (en *single) discarded() int64 {
	return en.baseDiscarded.Load() + en.eng.Stats().Discarded.Load() - en.engDiscarded0.Load()
}

// minTimestamp mirrors the graph stream "nothing seen yet" sentinel.
const minTimestamp Timestamp = -1 << 62

// sinceStart normalizes a stream clock's "nothing seen yet" sentinel
// to 0.
func sinceStart(t Timestamp) Timestamp {
	if t > minTimestamp {
		return t
	}
	return 0
}

// statsFast is the snapshot without the walking fields
// (PartialMatches, SpaceBytes stay zero) — counter-only reads, cheap
// enough for per-gauge metric sampling.
func (en *single) statsFast() Stats {
	st := Stats{
		Matches:         en.matches(),
		Discarded:       en.discarded(),
		Fed:             en.fed.Load(),
		InWindow:        en.stream.Len(),
		LastTime:        sinceStart(en.stream.LastTime()),
		JoinScanned:     en.baseJoinScanned.Load() + en.eng.Stats().JoinScanned.Load(),
		JoinCandidates:  en.baseJoinCandidates.Load() + en.eng.Stats().JoinCandidates.Load(),
		ExpiryBatches:   en.baseExpiryBatches.Load() + en.eng.Stats().ExpiryBatches.Load(),
		ExpiryEvicted:   en.baseExpiryEvicted.Load() + en.eng.Stats().ExpiryEvicted.Load(),
		K:               en.eng.K(),
		Reoptimizations: int(en.rebuilds.Load()),
		Replayed:        en.replayed,
		RoutedFraction:  1,
		Adaptive:        en.adapt != nil,
		Durable:         en.log != nil,
	}
	if en.log != nil {
		st.WALSeq = en.walSeq.Load()
		st.WALSyncs = en.log.Syncs()
	}
	if en.ownsDisp {
		st.Subscriptions = en.disp.Subscribers()
		st.SubscriptionDelivered = en.disp.Delivered()
		st.SubscriptionDropped = en.disp.Dropped()
	}
	if o := en.obs; o != nil {
		det := o.det.Snapshot()
		st.Detection = &det
		if en.ownsDisp {
			// Standalone engines carry the full stage view; fleet
			// members leave it to the fleet aggregate (they share one
			// pipeline).
			st.Stages = o.pipe.Snapshot()
			st.WatermarkLagNs = watermarkLag(st.LastTime, o.eventUnitNs)
		}
	}
	return st
}

// Stats implements Engine.
func (en *single) Stats() Stats {
	st := en.statsFast()
	st.PartialMatches = en.eng.PartialMatchCount()
	st.SpaceBytes = en.eng.SpaceBytes()
	return st
}

// CurrentMatches implements Engine.
func (en *single) CurrentMatches(fn func(*Match) bool) { en.eng.CurrentMatches(fn) }

// writeState is the diagnostic dump behind WriteState.
func (en *single) writeState(w io.Writer) { en.eng.WriteState(w) }

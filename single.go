package timingsubg

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"timingsubg/internal/checkpoint"
	"timingsubg/internal/core"
	"timingsubg/internal/dispatch"
	"timingsubg/internal/graph"
	"timingsubg/internal/query"
)

// single is one query's matching state inside a fleet: a core matching
// engine plus a window, with adaptivity composed on as an option rather
// than a wrapper type. The fleet owns everything around it — the feed
// pipeline, the WAL, recovery, checkpoint cadence and the results plane
// — and reaches the member through memberFeed. A single-query engine is
// a fleet of one (solo).
type single struct {
	q     *Query
	opts  Options     // normalized
	adapt *Adaptivity // nil = adaptivity off; normalized copy otherwise

	// obs is the member's share of the fleet's observability wiring (nil
	// = metrics off): the fleet's stage pipeline and arrival clock, and
	// the member's own detection histogram — the per-query attribution.
	obs *obs
	// fed counts the edges pushed into this member: its share of the
	// fleet's fan-out, plus recovery replay.
	fed atomic.Int64

	stream graph.Windower
	eng    *core.Engine
	// disp is the fleet's results plane: every reported match is
	// published to it under the member's query name (pubName).
	disp    *dispatch.Dispatcher
	pubName string
	// muted suppresses publication while derived state is rebuilt from
	// edges whose matches were already reported (checkpoint recovery,
	// adaptive rebuilds).
	muted bool

	// Adaptivity state.
	picked     []*query.TCSubquery
	sinceCheck int
	rebuilds   atomic.Int64

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
	baseJoinScanned      atomic.Int64
	baseJoinCandidates   atomic.Int64
	baseJoinMaterialized atomic.Int64

	// Expiry-plane baselines, accumulated like the join-probe ones
	// (rebuild re-feeds never slide the window, so the fresh engine
	// restarts both at zero).
	baseExpiryBatches atomic.Int64
	baseExpiryEvicted atomic.Int64
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

// newSingle builds a member over options the fleet has validated, on
// the fleet's observability wiring ob (nil = metrics off). newMember
// attaches it to the fleet's results plane; a durable fleet restores
// its stream afterwards.
func newSingle(q *Query, o Options, adapt *Adaptivity, ob *obs) *single {
	en := &single{q: q, opts: o, adapt: normAdaptivity(adapt), obs: ob}
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
	return en
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

// memberFeed advances the window and processes one edge transaction —
// a fleet's fan-out step, or recovery replay — and ticks the
// reoptimization cadence. No WAL and no closed-check; the fleet owns
// both.
func (en *single) memberFeed(e Edge) (EdgeID, error) {
	stored, expired, err := en.stream.Push(e)
	if err != nil {
		return 0, err
	}
	en.eng.ProcessBatch(stored, expired)
	en.fed.Add(1)
	if en.adapt != nil {
		if en.sinceCheck++; en.sinceCheck >= en.adapt.ReoptimizeEvery {
			en.sinceCheck = 0
			en.maybeReoptimize()
		}
	}
	return stored.ID, nil
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
	en.baseJoinMaterialized.Add(en.eng.Stats().JoinMaterialized.Load())
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

// statsFast is the member's snapshot without the walking fields
// (PartialMatches, SpaceBytes stay zero) — counter-only reads, cheap
// enough for every /metrics scrape. The fleet adds what it owns:
// WAL, replay, delivery and stage accounting.
func (en *single) statsFast() Stats {
	st := Stats{
		Matches:          en.matches(),
		Discarded:        en.discarded(),
		Fed:              en.fed.Load(),
		InWindow:         en.stream.Len(),
		LastTime:         sinceStart(en.stream.LastTime()),
		JoinScanned:      en.baseJoinScanned.Load() + en.eng.Stats().JoinScanned.Load(),
		JoinCandidates:   en.baseJoinCandidates.Load() + en.eng.Stats().JoinCandidates.Load(),
		JoinMaterialized: en.baseJoinMaterialized.Load() + en.eng.Stats().JoinMaterialized.Load(),
		ExpiryBatches:    en.baseExpiryBatches.Load() + en.eng.Stats().ExpiryBatches.Load(),
		ExpiryEvicted:    en.baseExpiryEvicted.Load() + en.eng.Stats().ExpiryEvicted.Load(),
		K:                en.eng.K(),
		Reoptimizations:  int(en.rebuilds.Load()),
		RoutedFraction:   1,
		Adaptive:         en.adapt != nil,
	}
	if o := en.obs; o != nil {
		det := o.det.Snapshot()
		st.Detection = &det
	}
	return st
}

// Stats is statsFast plus the partial-match walks.
func (en *single) Stats() Stats {
	st := en.statsFast()
	st.PartialMatches = en.eng.PartialMatchCount()
	st.SpaceBytes = en.eng.SpaceBytes()
	return st
}

// CurrentMatches enumerates the member's standing matches.
func (en *single) CurrentMatches(fn func(*Match) bool) { en.eng.CurrentMatches(fn) }

// writeState is the diagnostic dump behind WriteState.
func (en *single) writeState(w io.Writer) { en.eng.WriteState(w) }

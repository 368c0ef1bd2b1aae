// Package core implements the paper's continuous query engine ("Timing"):
// incoming edges extend the expansion lists of a TC decomposition
// (Algorithm 1, INSERT), expired edges cascade out of them (Algorithm 2,
// DELETE), and complete matches are reported as they form. The engine is
// storage-agnostic (MS-tree or independent copies → the paper's
// Timing-IND ablation) and serial: one goroutine drives an engine at a
// time. The paper's Section V transaction scheduler is not implemented;
// DESIGN.md §2 records its measured Fig. 19/20 result.
package core

import (
	"sync/atomic"
	"time"

	"timingsubg/internal/explist"
	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/query"
	"timingsubg/internal/stats"
)

// Storage selects the partial-match store backend.
type Storage int

// Storage backends.
const (
	// MSTree stores partial matches in match-store trees (the paper's
	// Timing system).
	MSTree Storage = iota
	// Independent stores every partial match as a standalone copy (the
	// paper's Timing-IND ablation).
	Independent
)

// Config configures an Engine.
type Config struct {
	// Storage selects the backend; default MSTree.
	Storage Storage
	// Decomposition overrides the cost-model-guided decomposition;
	// nil computes query.Decompose(q).
	Decomposition *query.Decomposition
	// OnMatch, if non-nil, receives every complete match as it forms,
	// on the goroutine driving the engine. The match is borrowed for the
	// duration of the callback: the engine reuses it once the callback
	// returns, so Clone to retain it.
	OnMatch func(*match.Match)
	// JoinHist, when non-nil, observes the insert-side join work;
	// ExpiryHist observes the window-expiry sweep (the batch of deletes
	// one Process evicts). One Process call in statSampleStride is
	// timed — a clock read rivals the insert itself, so sampling is
	// what keeps metrics-on overhead within a few percent (the stride
	// is latency-independent, so percentiles stay unbiased; Counts are
	// samples, not call counts). Nil (the default) adds no work to the
	// hot path.
	JoinHist   *stats.AtomicHistogram
	ExpiryHist *stats.AtomicHistogram
}

// Stats holds engine counters. Only the goroutine driving the engine
// writes them, but they are atomic because other goroutines read them
// while it runs: a fleet's Stats and monitor samplers load them
// lock-free, without stopping ingest.
type Stats struct {
	EdgesIn    atomic.Int64 // insert operations processed
	EdgesOut   atomic.Int64 // delete operations processed
	Discarded  atomic.Int64 // incoming edges filtered as discardable
	Matches    atomic.Int64 // complete matches reported
	PartialIns atomic.Int64 // partial matches inserted
	PartialDel atomic.Int64 // partial matches deleted

	// Join-index selectivity (these replace the old JoinOps counter,
	// whose visited-pair semantics JoinScanned carries on): JoinScanned
	// counts stored partial matches visited by INSERT probe loops;
	// JoinCandidates counts the visited matches that pass the join-key
	// filter (equal connecting-vertex binding, or equal shared bindings
	// in the global cascade) and therefore get a full compatibility
	// evaluation. Under MSTree storage the vertex join indexes make
	// every visited match a candidate — scanned == candidates, the
	// probe cost the index reduces from O(item) to O(candidates);
	// independent-storage engines visit whole items, so the gap between
	// the two is exactly the work the index saves.
	JoinScanned    atomic.Int64
	JoinCandidates atomic.Int64
	// JoinMaterialized counts the global cascade's candidates built into
	// a match. The cascade checks each candidate on its stored raw path
	// and builds only a pair that joins, so this equals the pairs the
	// cascade stores.
	JoinMaterialized atomic.Int64

	// Batch-expiry plane: ExpiryBatches counts window slides processed
	// through the batched delete path (one sweep over every expired
	// edge of the slide); ExpiryEvicted counts the expired edges those
	// batches covered. Their ratio is the mean eviction batch size —
	// the factor by which batching divides level walks relative to
	// edge-at-a-time expiry.
	// Zero on the per-edge Process path.
	ExpiryBatches atomic.Int64
	ExpiryEvicted atomic.Int64
}

// edgeLoc places a query edge inside the decomposition.
type edgeLoc struct {
	sub int // 1-based TC-subquery index
	pos int // 1-based position in the timing sequence
}

// insertProbe is the precomputed join key for extending a prefix with a
// data edge bound to one query edge at sequence position p > 1: every
// stored match of the prefix binds the connecting query vertex cv, and
// only prefixes whose binding equals the incoming edge's corresponding
// endpoint (From when useFrom) can possibly extend — the hash key the
// expansion lists index their interior items by.
type insertProbe struct {
	cv      query.VertexID
	useFrom bool
}

// Engine is the continuous time-constrained subgraph search engine. It
// is not safe for concurrent use: one goroutine at a time calls its
// methods.
type Engine struct {
	q      *query.Query
	dec    *query.Decomposition
	subs   []explist.SubList
	global explist.GlobalList // nil when the decomposition has one subquery
	loc    []edgeLoc          // indexed by query.EdgeID
	probes []insertProbe      // indexed by query.EdgeID; valid for pos > 1
	joins  []levelJoin        // join metadata for global items 2..k

	// joinHist/expiryHist are Config.JoinHist/ExpiryHist (nil = off);
	// sampleTick counts Process calls for their sampling stride.
	joinHist   *stats.AtomicHistogram
	expiryHist *stats.AtomicHistogram
	sampleTick uint64

	// sc is the insert path's scratch: its buffers and match free-list.
	sc *insertScratch
	// xs is the batched expiry sweep's casualty buffers.
	xs expiryScratch

	onMatch func(*match.Match)

	stats Stats
}

// New builds an engine for q.
func New(q *query.Query, cfg Config) *Engine {
	dec := cfg.Decomposition
	if dec == nil {
		dec = query.Decompose(q)
	}
	e := &Engine{q: q, dec: dec, onMatch: cfg.OnMatch,
		joinHist: cfg.JoinHist, expiryHist: cfg.ExpiryHist}
	e.sc = newInsertScratch(e)
	e.xs.leaves = make([][]explist.Handle, dec.K())
	e.loc = make([]edgeLoc, q.NumEdges())
	e.probes = make([]insertProbe, q.NumEdges())
	for si, sub := range dec.Subqueries {
		for pi, qe := range sub.Seq {
			e.loc[qe] = edgeLoc{sub: si + 1, pos: pi + 1}
			if pi >= 1 {
				cv, useFrom, ok := sub.ConnectingVertex(q, pi+1)
				if !ok {
					panic("core: timing sequence position has no connecting vertex")
				}
				e.probes[qe] = insertProbe{cv: cv, useFrom: useFrom}
			}
		}
	}
	if cfg.Storage == Independent {
		subs := make([]*explist.FlatSubList, dec.K())
		for i, sub := range dec.Subqueries {
			subs[i] = explist.NewFlatSubList(q, sub)
			e.subs = append(e.subs, subs[i])
		}
		if dec.K() > 1 {
			e.global = explist.NewFlatGlobalList(q, dec, subs)
		}
	} else {
		subs := make([]*explist.TreeSubList, dec.K())
		for i, sub := range dec.Subqueries {
			subs[i] = explist.NewTreeSubList(q, sub)
			e.subs = append(e.subs, subs[i])
		}
		if dec.K() > 1 {
			e.global = explist.NewTreeGlobalList(q, dec, subs)
		}
	}
	if dec.K() > 1 {
		e.joins = buildJoins(q, dec)
		// Key every stored join side by the shared bindings of the join
		// level it feeds: sub-list x's complete matches are the right
		// side of join x (sub-list 1's doubling as L₀¹, the left side of
		// join 2, which shares joins[2]); global item ℓ < k is the left
		// side of join ℓ+1.
		sharedByJoin := make([][]query.VertexID, dec.K()+1)
		for x := 2; x <= dec.K(); x++ {
			sharedByJoin[x] = e.joins[x].shared
		}
		e.subs[0].SetJoinKey(sharedByJoin[2])
		for x := 2; x <= dec.K(); x++ {
			e.subs[x-1].SetJoinKey(sharedByJoin[x])
		}
		e.global.SetJoinKeys(sharedByJoin)
	}
	return e
}

// ---------------------------------------------------------------------
// Insert scratch
// ---------------------------------------------------------------------

// insertScratch holds one insert's reusable buffers and the state its
// explist callbacks read. The callbacks are sc's own methods, bound
// once when the scratch is made, so handing them to the candidate
// iterators allocates nothing per call.
type insertScratch struct {
	e       *Engine
	qes     []query.EdgeID
	parents []pair
	delta   []pair
	pairs   []joined
	gbuf    [2][]pair // the cascade's ping-pong level outputs

	// free recycles the matches an insert takes and gives back. It is
	// uncapped: every match an insert takes returns, those lent to
	// OnMatch included, so it never outgrows one insert's peak.
	free []*match.Match
	ex   explist.Scratch // the enumerators' path and match buffer

	// Probe state: the incoming edge d bound to query edge qe, whose
	// stored prefixes must bind cv to key; the compiled join pj of the
	// level being probed, whose stored side is the left one when
	// storedLeft, and the delta row dp it is probing with, loaded into
	// row.
	qe         query.EdgeID
	d          graph.Edge
	cv         query.VertexID
	key        graph.VertexID
	pj         *pathJoin
	storedLeft bool
	dp         pair
	row        deltaRow

	scanned, candidates, materialized int64

	probe func(explist.Handle, *match.Match) bool
	join  func(explist.Handle, []graph.Edge) bool
}

func newInsertScratch(e *Engine) *insertScratch {
	sc := &insertScratch{e: e}
	sc.probe, sc.join = sc.probeParent, sc.joinStored
	return sc
}

// reset ends an insert: it clears every match pointer the buffers
// hold, so an idle scratch pins no dead match. The free-list
// keeps its matches, and takeMatch clears the slots it vacates.
func (sc *insertScratch) reset() {
	sc.parents, sc.delta, sc.pairs = truncate(sc.parents), truncate(sc.delta), truncate(sc.pairs)
	sc.gbuf[0], sc.gbuf[1] = truncate(sc.gbuf[0]), truncate(sc.gbuf[1])
	sc.pj, sc.dp = nil, pair{}
	sc.scanned, sc.candidates, sc.materialized = 0, 0, 0
}

// truncate empties a scratch buffer, clearing the elements it held.
// Every buffer is emptied only through truncate, so the slots past its
// length are always zero and clearing costs what the insert used,
// not the buffer's high-water capacity.
func truncate[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// takeMatch pops a recycled match, or allocates one; its bindings are
// stale. The vacated slot is cleared, so a match that leaves the list
// is never pinned by its backing array.
func (sc *insertScratch) takeMatch() *match.Match {
	n := len(sc.free)
	if n == 0 {
		return match.New(sc.e.q)
	}
	m := sc.free[n-1]
	sc.free[n-1] = nil
	sc.free = sc.free[:n-1]
	return m
}

// getEmptyMatch returns a recycled match with no bindings.
func (sc *insertScratch) getEmptyMatch() *match.Match {
	m := sc.takeMatch()
	m.Reset()
	return m
}

// cloneMatch returns a recycled copy of src.
func (sc *insertScratch) cloneMatch(src *match.Match) *match.Match {
	m := sc.takeMatch()
	m.CopyFrom(src)
	return m
}

// putMatch recycles a match the insert still owns.
func (sc *insertScratch) putMatch(m *match.Match) { sc.free = append(sc.free, m) }

// Query returns the engine's query.
func (e *Engine) Query() *query.Query { return e.q }

// Decomposition returns the TC decomposition in use.
func (e *Engine) Decomposition() *query.Decomposition { return e.dec }

// Stats returns the engine counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// K returns the decomposition size.
func (e *Engine) K() int { return e.dec.K() }

// Insert processes one incoming edge (Algorithm 1).
func (e *Engine) Insert(d graph.Edge) { e.runInsert(d, e.sc) }

// Delete processes one expired edge (Algorithm 2). d must be the
// window's oldest stored edge, as the windower expires them
// oldest-first: the MS-tree backend finds d's matches as the head of
// each sub-list's item 1 and their extensions, not by searching for d.
func (e *Engine) Delete(d graph.Edge) { e.runDelete(d) }

// DeleteBatch processes every edge expired by one window slide as a
// single batched sweep (Algorithm 2, amortized). expired
// must be the slide's eviction set in chronological order, as produced
// by the windower.
func (e *Engine) DeleteBatch(expired []graph.Edge) { e.runDeleteBatch(expired) }

// statSampleStride is the Process-call sampling stride for the join and
// expiry stage histograms: one call in 32 is timed, starting with the
// first. A clock read costs tens of nanoseconds — comparable to the
// insert hot path itself — so timing every call would be the dominant
// cost of having metrics on (BenchmarkInsertIngest's indexed/metrics
// A/B); sampling keeps the overhead a few percent while the stride is
// latency-independent, so the histogram percentiles stay unbiased.
const statSampleStride = 32

// tickSample advances the histogram sampling stride shared by Process
// and ProcessBatch, reporting whether this slide is the timed one.
func (e *Engine) tickSample() bool {
	if e.joinHist == nil && e.expiryHist == nil {
		return false
	}
	e.sampleTick++
	return e.sampleTick%statSampleStride == 1
}

// Process handles one window slide with edge-at-a-time expiry:
// expired edges are removed in chronological order, then the incoming
// edge is inserted — the paper's deletion algorithm, which the Fig.
// 15–25 harness and the oracles run; ProcessBatch is the batched
// production path. When Config.JoinHist/ExpiryHist are set, one call in
// statSampleStride has its insert and expiry sweep timed as the
// pipeline's join and expiry stages.
func (e *Engine) Process(d graph.Edge, expired []graph.Edge) {
	sampled := e.tickSample()
	timed := sampled && e.expiryHist != nil && len(expired) > 0
	var t time.Time
	if timed {
		t = stats.SampleStart()
	}
	for _, x := range expired {
		e.Delete(x)
	}
	if timed {
		e.expiryHist.ObserveSince(t)
	}
	if sampled && e.joinHist != nil {
		t = stats.SampleStart()
		e.Insert(d)
		e.joinHist.ObserveSince(t)
		return
	}
	e.Insert(d)
}

// ProcessBatch handles one window slide with batched expiry:
// all expired edges are swept in a single runDeleteBatch pass (each
// touched level once, instead of once per expired edge), then the
// incoming edge is inserted. Sampling mirrors Process: the
// expiry histogram observes the whole batch once.
func (e *Engine) ProcessBatch(d graph.Edge, expired []graph.Edge) {
	sampled := e.tickSample()
	if len(expired) > 0 {
		if sampled && e.expiryHist != nil {
			t := stats.SampleStart()
			e.DeleteBatch(expired)
			e.expiryHist.ObserveSince(t)
		} else {
			e.DeleteBatch(expired)
		}
	}
	if sampled && e.joinHist != nil {
		t := stats.SampleStart()
		e.Insert(d)
		e.joinHist.ObserveSince(t)
		return
	}
	e.Insert(d)
}

// SpaceBytes estimates the resident size of all stored partial matches.
// Call while quiescent.
func (e *Engine) SpaceBytes() int64 {
	var b int64
	for _, s := range e.subs {
		b += s.SpaceBytes()
	}
	if e.global != nil {
		b += e.global.SpaceBytes()
	}
	return b
}

// PartialMatchCount returns the total number of stored partial matches
// across all expansion-list items. Call while quiescent.
func (e *Engine) PartialMatchCount() int64 {
	var n int64
	for _, s := range e.subs {
		for lvl := 1; lvl <= s.Depth(); lvl++ {
			n += int64(s.Count(lvl))
		}
	}
	if e.global != nil {
		for lvl := 2; lvl <= e.global.K(); lvl++ {
			n += int64(e.global.Count(lvl))
		}
	}
	return n
}

// pair carries a stored handle together with its materialized match.
type pair struct {
	h explist.Handle
	m *match.Match
}

// -------------------------------------------------------------------
// Algorithm 1: INSERT.
// -------------------------------------------------------------------

func (e *Engine) runInsert(d graph.Edge, sc *insertScratch) {
	e.stats.EdgesIn.Add(1)
	defer sc.reset()
	sc.d = d
	contributed := false
	sc.qes = e.q.MatchingEdgesInto(d, sc.qes)
	for _, qe := range sc.qes {
		s, p := e.loc[qe].sub, e.loc[qe].pos
		sub := e.subs[s-1]
		depth := sub.Depth()

		delta := sc.delta[:0]
		if p == 1 {
			probe := sc.getEmptyMatch()
			if probe.CanBindPrescreened(e.q, qe, d) {
				probe.Bind(e.q, qe, d)
				delta = append(delta, pair{sub.Insert(1, explist.NoHandle, d), probe})
			} else {
				sc.putMatch(probe)
			}
		} else {
			// The incoming edge pins the connecting query vertex's
			// binding to one of its endpoints: only stored prefixes with
			// that exact binding can extend, so probe by key instead of
			// scanning the whole item (the flat backend still visits
			// everything — the key check then filters).
			pb := e.probes[qe]
			sc.qe, sc.cv, sc.key = qe, pb.cv, d.To
			if pb.useFrom {
				sc.key = d.From
			}
			sc.parents = truncate(sc.parents)
			sub.EachCandidate(p-1, sc.key, &sc.ex, sc.probe)
			for _, pr := range sc.parents {
				pr.m.Bind(e.q, qe, d)
				delta = append(delta, pair{sub.Insert(p, pr.h, d), pr.m})
			}
		}
		e.stats.PartialIns.Add(int64(len(delta)))
		if len(delta) > 0 {
			contributed = true
		}

		if p == depth {
			if e.K() == 1 {
				e.emit(delta, sc)
			} else {
				e.cascade(s, delta, sc)
				for _, dp := range delta {
					sc.putMatch(dp.m)
				}
			}
		} else {
			for _, dp := range delta {
				sc.putMatch(dp.m)
			}
		}
		sc.delta = truncate(delta)
	}
	if !contributed {
		e.stats.Discarded.Add(1)
	}
	if sc.scanned > 0 {
		e.stats.JoinScanned.Add(sc.scanned)
	}
	if sc.candidates > 0 {
		e.stats.JoinCandidates.Add(sc.candidates)
	}
	if sc.materialized > 0 {
		e.stats.JoinMaterialized.Add(sc.materialized)
	}
}

// probeParent is the INSERT probe: a stored prefix m of sc.qe's
// predecessor item that binds sc.cv to sc.key and can take sc.d is
// copied into sc.parents.
func (sc *insertScratch) probeParent(h explist.Handle, m *match.Match) bool {
	sc.scanned++
	if m.Vtx[sc.cv] != sc.key {
		return true
	}
	sc.candidates++
	if m.CanBindPrescreened(sc.e.q, sc.qe, sc.d) {
		sc.parents = append(sc.parents, pair{h, sc.cloneMatch(m)})
	}
	return true
}

// joinStored joins the delta row sc.dp with a stored candidate of
// level sc.pj, given by its raw path: the compiled checks read the path
// where it is stored, and only a pair that joins is built into a match,
// the delta row's bindings with the path's bound on top, and collected
// in sc.pairs.
func (sc *insertScratch) joinStored(h explist.Handle, path []graph.Edge) bool {
	sc.scanned++
	if !sc.pj.sharedOK(path, &sc.row) {
		return true
	}
	sc.candidates++
	if !sc.pj.tailOK(path, &sc.row) {
		return true
	}
	sc.materialized++
	nm := sc.cloneMatch(sc.dp.m)
	sc.pj.order.Bind(sc.e.q, nm, path)
	p := joined{lh: sc.dp.h, rh: h, m: nm}
	if sc.storedLeft {
		p.lh, p.rh = h, sc.dp.h
	}
	sc.pairs = append(sc.pairs, p)
	return true
}

// joined is a compatible (left, right) candidate pair with its merged
// match, collected while probing a join level and stored once the probe
// is done.
type joined struct {
	lh, rh explist.Handle
	m      *match.Match
}

// cascade joins fresh complete matches of subquery s into the global
// list and onward through Q^{s+1}..Q^k (Algorithm 1 lines 11-24),
// stopping at the first level that yields nothing. Each delta row
// probes the stored side by its shared-binding fingerprint, and every
// candidate is checked on its raw path with the level's join compiled
// for that side, so only a pair that joins is built into a match. Each
// level's output lands in the scratch ping-pong buffer the previous
// level did not use. The caller retains ownership of delta's matches;
// every intermediate match cascade allocates is recycled, and the
// final results are handed to emit.
func (e *Engine) cascade(s int, delta []pair, sc *insertScratch) {
	deltaG := delta
	// For s > 1 the first level is join s, where the new Q^s matches
	// join with the stored prefix Ω(L₀^{s-1}) — the stored side is the
	// LEFT side. Every later level x joins the accumulated prefix
	// deltaG with stored Ω(Q^x) — the stored side is the RIGHT side.
	first := max(s, 2)
	for x := first; x <= e.K() && len(deltaG) > 0; x++ {
		j := &e.joins[x]
		sc.storedLeft = x == s
		sc.pj = &j.storedRight
		if sc.storedLeft {
			sc.pj = &j.storedLeft
		}
		sc.pairs = truncate(sc.pairs)
		for _, d := range deltaG {
			sc.dp = d
			sc.pj.load(&sc.row, d.m)
			fp := explist.JoinFingerprint(d.m, j.shared)
			if sc.storedLeft {
				e.eachGlobalCandidate(s-1, fp, &sc.ex, sc.join)
			} else {
				e.subs[x-1].EachJoinCandidate(fp, &sc.ex, sc.join)
			}
		}

		buf := &sc.gbuf[x%2]
		*buf = e.insertJoined(x, sc.pairs, truncate(*buf))
		if x > first { // deltaG's matches were made by this cascade
			for _, d := range deltaG {
				sc.putMatch(d.m)
			}
		}
		deltaG = *buf
	}
	e.emit(deltaG, sc)
}

// insertJoined stores pre-joined pairs at global item lvl, appending
// them to out.
func (e *Engine) insertJoined(lvl int, pairs []joined, out []pair) []pair {
	for _, p := range pairs {
		out = append(out, pair{e.global.Insert(lvl, p.lh, p.rh), p.m})
	}
	e.stats.PartialIns.Add(int64(len(pairs)))
	return out
}

// eachGlobalCandidate iterates the raw paths of the stored matches of
// global item lvl whose shared-binding fingerprint equals fp, resolving
// the L₀¹ alias.
func (e *Engine) eachGlobalCandidate(lvl int, fp uint64, ex *explist.Scratch, fn func(explist.Handle, []graph.Edge) bool) {
	if lvl == 1 {
		e.subs[0].EachJoinCandidate(fp, ex, fn)
		return
	}
	e.global.EachCandidate(lvl, fp, ex, fn)
}

// emit reports complete matches. Each is lent to the callback and
// returns to sc's free-list once the callback does.
func (e *Engine) emit(results []pair, sc *insertScratch) {
	if len(results) == 0 {
		return
	}
	e.stats.Matches.Add(int64(len(results)))
	for _, r := range results {
		if e.onMatch != nil {
			e.onMatch(r.m)
		}
		sc.putMatch(r.m)
	}
}

// -------------------------------------------------------------------
// Algorithm 2: DELETE.
// -------------------------------------------------------------------

func (e *Engine) runDelete(d graph.Edge) {
	e.stats.EdgesOut.Add(1)
	k := e.K()
	xs := &e.xs
	for s := 1; s <= k; s++ {
		if !e.subTouchedBy(s, d) {
			continue
		}
		sub := e.subs[s-1]
		depth := sub.Depth()
		var casualties []explist.Handle
		for lvl := 1; lvl <= depth; lvl++ {
			dst := &xs.cas[lvl%2]
			if lvl == depth {
				// The dead complete submatches feed the global cascade.
				dst = &xs.leaves[0]
			}
			*dst = sub.DeleteLevel(lvl, d.ID, casualties, (*dst)[:0])
			casualties = *dst
			e.stats.PartialDel.Add(int64(len(casualties)))
		}
		if k == 1 {
			continue
		}
		lastDead := casualties
		start := s
		var gcas, deadSubs []explist.Handle
		if s == 1 {
			start = 2
			gcas = lastDead
		} else {
			deadSubs = lastDead
		}
		for lvl := start; lvl <= k; lvl++ {
			var ds []explist.Handle
			if lvl == s {
				ds = deadSubs
			}
			dst := &xs.cas[lvl%2]
			*dst = e.global.DeleteLevel(lvl, ds, gcas, d.ID, (*dst)[:0])
			gcas = *dst
			e.stats.PartialDel.Add(int64(len(gcas)))
		}
	}
}

// expiryScratch holds the expiry cascades' casualty buffers. The
// engine owns them, so a slide allocates nothing once they have grown.
// They hold integer handles, which pin nothing, so a sweep empties a
// buffer before it writes it and leaves it as it is when done.
type expiryScratch struct {
	// cas is the ping-pong pair of item outputs a cascade threads from
	// one item to the next: first each sub-list's, then the global
	// list's.
	cas [2][]explist.Handle
	// leaves[s] holds the complete submatches of Q^(s+1) the slide
	// expired, kept until the global cascade consumes them (per-edge
	// expiry runs one subquery at a time and uses leaves[0]).
	leaves [][]explist.Handle
}

// runDeleteBatch processes all of a slide's expired edges in one pass,
// following Algorithm 2's cascade once for the whole slide instead of
// once per edge. A timing sequence binds its edges in time order, so a
// stored match's oldest edge is its first; the matches a slide expires
// are therefore each sub-list's item-1 matches older than the cut, their
// extensions item by item, and the global matches that extend or
// reference an expired submatch.
func (e *Engine) runDeleteBatch(expired []graph.Edge) {
	e.stats.EdgesOut.Add(int64(len(expired)))
	e.stats.ExpiryBatches.Add(1)
	e.stats.ExpiryEvicted.Add(int64(len(expired)))
	// The windower evicts oldest-first with strictly increasing
	// timestamps, so everything still stored after this slide has a
	// timestamp strictly above the last expired edge's.
	cut := expired[len(expired)-1].Time + 1
	xs := &e.xs
	deleted := 0
	for s, sub := range e.subs {
		var cas []explist.Handle
		depth := sub.Depth()
		xs.leaves[s] = xs.leaves[s][:0] // the sweep may stop short of the leaves
		for lvl := 1; lvl <= depth; lvl++ {
			dst := &xs.cas[lvl%2]
			if lvl == depth {
				dst = &xs.leaves[s]
			}
			*dst = sub.DeleteExpired(lvl, cut, cas, (*dst)[:0])
			cas = *dst
			deleted += len(cas)
			if len(cas) == 0 {
				break // no expired prefix, no expired extension
			}
		}
	}
	if e.global != nil {
		// Global item 2's parents are Q¹'s complete matches (L₀¹).
		gcas := xs.leaves[0]
		for lvl := 2; lvl <= e.K(); lvl++ {
			deadSubs := xs.leaves[lvl-1]
			if len(gcas) == 0 && len(deadSubs) == 0 {
				gcas = nil
				continue
			}
			dst := &xs.cas[lvl%2]
			*dst = e.global.DeleteExpired(lvl, cut, deadSubs, gcas, (*dst)[:0])
			gcas = *dst
			deleted += len(gcas)
		}
	}
	e.stats.PartialDel.Add(int64(deleted))
}

// subTouchedBy reports whether d can match any position of subquery s.
func (e *Engine) subTouchedBy(s int, d graph.Edge) bool {
	for _, qe := range e.dec.Subqueries[s-1].Seq {
		if e.q.MatchesData(qe, d) {
			return true
		}
	}
	return false
}

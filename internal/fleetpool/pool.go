// Package fleetpool is the sharded execution substrate of the fleet
// engine: a fixed set of long-lived shard workers plus a load-balanced
// assignment of member handles to shards.
//
// The fleet engine partitions its member queries across N shards, each
// evaluated by one pinned worker goroutine, so that the per-edge fan-out
// of Feed/FeedBatch runs concurrently across shards while every member
// still sees its edges strictly in stream order (a member lives on
// exactly one shard, and a shard evaluates its work list sequentially).
// Run is the per-call barrier: it returns only when every dispatched
// shard has finished, which is what preserves the engine contract that a
// feed call's effects are complete when the call returns.
//
// Concurrency contract: the assignment mutators (Assign, Release) must
// be serialized by the caller against each other and against Run,
// Handles and Load — the fleet engine does this with its roster lock
// (mutators under the write lock, dispatch and sampling under the read
// lock). Run itself may be called by one goroutine at a time (the fleet
// feed path, which the Engine contract already serializes).
package fleetpool

import (
	"sync"
	"sync/atomic"
	"time"

	"timingsubg/internal/stats"
)

// task is one unit of shard work plus the barrier it reports to.
type task struct {
	fn   func(shard int)
	sent time.Time // dispatch time, for WaitHist; zero when unmetered
	done *sync.WaitGroup
}

// Pool runs shard work on pinned workers and tracks which member handle
// lives on which shard. Create with New, stop with Close.
type Pool struct {
	tasks   []chan task
	workers sync.WaitGroup

	shards  [][]int     // member handles per shard, in assignment order
	shardOf map[int]int // handle → shard

	// WaitHist observes queue wait (Run dispatch → worker pickup) and
	// ExecHist the task execution time, per shard task. Both are
	// optional; set them right after New, before the first Run (the
	// channel handoff orders the writes for the workers). Nil disables.
	WaitHist *stats.AtomicHistogram
	ExecHist *stats.AtomicHistogram

	// busy accumulates each shard's cumulative task execution time, in
	// nanoseconds — the per-shard utilization ledger behind Busy. Only
	// metered tasks contribute (the histograms already pay for the clock
	// reads; an unmetered pool stays clock-free).
	busy []atomic.Int64
}

// New starts a pool of n shard workers (n < 1 is treated as 1).
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{
		tasks:   make([]chan task, n),
		shards:  make([][]int, n),
		shardOf: make(map[int]int),
		busy:    make([]atomic.Int64, n),
	}
	for i := range p.tasks {
		// Capacity 1: Run dispatches at most one task per shard per
		// call, so sends never block on a busy worker.
		p.tasks[i] = make(chan task, 1)
		p.workers.Add(1)
		go p.worker(i)
	}
	return p
}

func (p *Pool) worker(shard int) {
	defer p.workers.Done()
	for t := range p.tasks[shard] {
		if t.sent.IsZero() {
			t.fn(shard)
		} else {
			start := time.Now()
			p.WaitHist.Observe(start.Sub(t.sent))
			t.fn(shard)
			d := time.Since(start)
			p.ExecHist.Observe(d)
			p.busy[shard].Add(int64(d))
		}
		t.done.Done()
	}
}

// Assign places handle on the least-loaded shard and returns that
// shard's index. Assigning an already-assigned handle is a bug.
func (p *Pool) Assign(handle int) int {
	best := 0
	for s := 1; s < len(p.shards); s++ {
		if len(p.shards[s]) < len(p.shards[best]) {
			best = s
		}
	}
	p.shards[best] = append(p.shards[best], handle)
	p.shardOf[handle] = best
	return best
}

// Release removes handle from its shard (the dynamic-fleet retire path);
// the freed capacity makes that shard the preferred target of the next
// Assign. Releasing an unknown handle is a no-op.
func (p *Pool) Release(handle int) {
	s, ok := p.shardOf[handle]
	if !ok {
		return
	}
	delete(p.shardOf, handle)
	hs := p.shards[s]
	for i, h := range hs {
		if h == handle {
			p.shards[s] = append(hs[:i], hs[i+1:]...)
			return
		}
	}
}

// ShardOf returns the shard that owns handle.
func (p *Pool) ShardOf(handle int) (int, bool) {
	s, ok := p.shardOf[handle]
	return s, ok
}

// Handles returns shard's member handles in assignment order. The slice
// is the pool's own; callers must not mutate it and must hold the same
// exclusion they hold for Assign/Release while reading it.
func (p *Pool) Handles(shard int) []int { return p.shards[shard] }

// Busy returns each shard's cumulative task execution time in
// nanoseconds (a fresh slice) — the skew between shards is the
// fair-share scheduler's view of how evenly member work spreads. All
// zeros when the pool runs unmetered (no histograms installed).
func (p *Pool) Busy() []int64 {
	out := make([]int64, len(p.busy))
	for i := range p.busy {
		out[i] = p.busy[i].Load()
	}
	return out
}

// Load returns the number of handles on each shard (a fresh slice).
func (p *Pool) Load() []int {
	out := make([]int, len(p.shards))
	for s := range p.shards {
		out[s] = len(p.shards[s])
	}
	return out
}

// Run invokes fn(shard) on each listed shard's worker concurrently and
// returns when all of them have finished — the per-call barrier. Shards
// not listed are untouched. Listing a shard twice is a bug.
func (p *Pool) Run(shards []int, fn func(shard int)) {
	if len(shards) == 0 {
		return
	}
	var done sync.WaitGroup
	done.Add(len(shards))
	var sent time.Time
	if p.WaitHist != nil && p.ExecHist != nil {
		sent = time.Now()
	}
	for _, s := range shards {
		p.tasks[s] <- task{fn: fn, sent: sent, done: &done}
	}
	done.Wait()
}

// Close stops the workers after any in-flight Run completes. The pool
// must not be used after Close.
func (p *Pool) Close() {
	for _, ch := range p.tasks {
		close(ch)
	}
	p.workers.Wait()
}

package core

import (
	"sync"

	"timingsubg/internal/graph"
	"timingsubg/internal/lock"
)

// LockScheme selects the concurrency-control scheme (Section VII-D).
type LockScheme int

// Locking schemes.
const (
	// FineGrained is the paper's scheme: per-item FIFO wait-lists, one
	// lock held at a time.
	FineGrained LockScheme = iota
	// AllLocks acquires every item a transaction may touch before it
	// starts (the comparison baseline "All-locks-N").
	AllLocks
)

// Parallel drives an Engine concurrently: every edge insertion/deletion
// becomes a transaction executed by its own goroutine, with at most
// Workers transactions in flight. The single caller of Process acts as
// the paper's main thread (Algorithm 3): it dispatches each transaction's
// lock requests in stream order before launching it, which keeps every
// wait-list chronologically sorted and the execution streaming consistent
// (Definition 11, Theorem 4).
//
// Parallel requires the MSTree storage backend; the independent backend
// is a single-threaded ablation.
type Parallel struct {
	eng     *Engine
	mgr     *lock.Manager
	scheme  LockScheme
	idle    chan *insertScratch // one scratch per worker; taking one is the admission slot
	wg      sync.WaitGroup
	nextTxn int64
}

// NewParallel wraps an MSTree-backed engine for concurrent execution with
// the given number of worker transactions in flight.
func NewParallel(eng *Engine, scheme LockScheme, workers int) *Parallel {
	if workers < 1 {
		workers = 1
	}
	p := &Parallel{
		eng:    eng,
		mgr:    lock.NewManager(),
		scheme: scheme,
		idle:   make(chan *insertScratch, workers),
	}
	for range workers {
		p.idle <- newInsertScratch(eng)
	}
	return p
}

// Engine returns the wrapped engine.
func (p *Parallel) Engine() *Engine { return p.eng }

// Process submits one window slide with edge-at-a-time expiry: deletion
// transactions for the expired edges in chronological order, then the
// insertion transaction for d — the paper's schedule, which the Fig.
// 19/20 harness runs. It must be called from a single goroutine.
func (p *Parallel) Process(d graph.Edge, expired []graph.Edge) {
	for _, x := range expired {
		p.submit(x, false)
	}
	p.submit(d, true)
}

func (p *Parallel) submit(d graph.Edge, isInsert bool) {
	var plan []lock.Request
	if isInsert {
		plan = p.eng.InsertPlan(d)
	} else {
		plan = p.eng.DeletePlan(d)
	}
	if len(plan) == 0 {
		// The edge matches no query edge: nothing to do, but keep the
		// counters faithful to the serial engine.
		if isInsert {
			p.eng.stats.EdgesIn.Add(1)
			p.eng.stats.Discarded.Add(1)
		} else {
			p.eng.stats.EdgesOut.Add(1)
		}
		return
	}
	// Bound in-flight transactions by taking an idle worker scratch
	// (deletes take one too and ignore it), then dispatch while still on
	// the dispatcher thread so wait-lists stay in timestamp order.
	sc := <-p.idle
	txnID := p.nextTxn
	p.nextTxn++

	run := func(lk lock.Locker, finish func()) {
		defer func() {
			finish()
			p.idle <- sc
			p.wg.Done()
		}()
		if isInsert {
			p.eng.runInsert(d, lk, sc)
		} else {
			p.eng.runDelete(d, lk)
		}
	}

	p.wg.Add(1)
	switch p.scheme {
	case AllLocks:
		txn := lock.NewAllTxn(p.mgr, txnID, plan)
		go func() {
			txn.Start()
			run(txn, txn.Finish)
		}()
	default:
		txn := lock.NewFineTxn(p.mgr, txnID, plan)
		go func() {
			run(txn, txn.Finish)
		}()
	}
}

// Wait blocks until all in-flight transactions have finished. Call it
// before reading results or space statistics.
func (p *Parallel) Wait() { p.wg.Wait() }

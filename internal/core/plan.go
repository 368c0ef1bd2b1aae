package core

import (
	"timingsubg/internal/graph"
	"timingsubg/internal/lock"
)

// InsertPlan returns the worst-case sequence of lock requests Ins(d) will
// issue, in exactly the order runInsert acquires them (Section V-B: the
// main thread dispatches all of a transaction's requests before launching
// it). An empty plan means d matches no query edge and needs no
// transaction.
func (e *Engine) InsertPlan(d graph.Edge) []lock.Request {
	var reqs []lock.Request
	add := func(id lock.ItemID, m lock.Mode) {
		reqs = append(reqs, lock.Request{Item: id, Mode: m})
	}
	k := e.K()
	for _, qe := range e.q.MatchingEdges(d) {
		s, p := e.loc[qe].sub, e.loc[qe].pos
		depth := e.subs[s-1].Depth()
		if p == 1 {
			add(item(s, 1), lock.X)
		} else {
			add(item(s, p-1), lock.S)
			add(item(s, p), lock.X)
		}
		if p == depth && k > 1 {
			if s > 1 {
				add(e.globalReadItem(s-1), lock.S)
				add(item(0, s), lock.X)
			}
			for x := s + 1; x <= k; x++ {
				add(item(x, e.subs[x-1].Depth()), lock.S)
				add(item(0, x), lock.X)
			}
		}
	}
	return reqs
}

// DeletePlan returns the lock requests Del(d) will issue, in runDelete's
// acquisition order. An empty plan means d touches no stored state.
func (e *Engine) DeletePlan(d graph.Edge) []lock.Request {
	var reqs []lock.Request
	add := func(id lock.ItemID, m lock.Mode) {
		reqs = append(reqs, lock.Request{Item: id, Mode: m})
	}
	k := e.K()
	for s := 1; s <= k; s++ {
		if !e.subTouchedBy(s, d) {
			continue
		}
		depth := e.subs[s-1].Depth()
		for lvl := 1; lvl <= depth; lvl++ {
			add(item(s, lvl), lock.X)
		}
		if k == 1 {
			continue
		}
		start := s
		if s == 1 {
			start = 2
		}
		for lvl := start; lvl <= k; lvl++ {
			add(item(0, lvl), lock.X)
		}
	}
	return reqs
}

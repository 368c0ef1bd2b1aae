// Package reduction implements Theorem 1's construction: an arbitrary
// (static) subgraph isomorphism instance reduces to time-constrained
// continuous subgraph search by streaming the data graph's edges with
// arbitrary strictly increasing timestamps, a window spanning the whole
// stream, and an empty timing order.
//
// Besides demonstrating the NP-hardness argument executably, the
// reduction doubles as an end-to-end differential test: the streaming
// engine must find exactly the matches a static backtracking searcher
// finds.
package reduction

import (
	"timingsubg/internal/core"
	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/query"
)

// FindAllStatic enumerates all subgraph-isomorphism matches of q in the
// edge set g by running the continuous engine over the Theorem 1 stream.
// The query's timing order must be empty for pure isomorphism semantics;
// a non-empty order is honoured against the synthetic timestamps (edges
// are stamped in slice order), which callers can exploit to ask
// order-constrained static questions.
func FindAllStatic(g []graph.Edge, q *query.Query) []*match.Match {
	var out []*match.Match
	eng := core.New(q, core.Config{OnMatch: func(m *match.Match) {
		out = append(out, m.Clone()) // m is lent to the callback
	}})
	// Window large enough that nothing expires: t_m − t_1 + 1.
	window := graph.Timestamp(len(g) + 1)
	st := graph.NewStream(window)
	for i, e := range g {
		e.Time = graph.Timestamp(i + 1)
		stored, expired, err := st.Push(e)
		if err != nil {
			// Unreachable: timestamps are assigned strictly increasing.
			panic(err)
		}
		eng.Process(stored, expired)
	}
	return out
}

// Exists reports whether q has at least one match in g (the decision
// problem of Theorem 1).
func Exists(g []graph.Edge, q *query.Query) bool {
	return len(FindAllStatic(g, q)) > 0
}

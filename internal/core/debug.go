package core

import (
	"fmt"
	"io"
)

// ItemCount is the live partial-match population of one expansion-list
// item, for observability (tsrun and tests read these to see where a
// query's state concentrates).
type ItemCount struct {
	// List is 0 for the global list L₀, 1..k for sub-lists.
	List int
	// Level is the 1-based item index.
	Level int
	// Count is the number of stored partial matches.
	Count int
}

// ItemCounts returns the population of every expansion-list item, sub
// lists first, then the global items (2..k). Call while quiescent.
func (e *Engine) ItemCounts() []ItemCount {
	var out []ItemCount
	for si, sub := range e.subs {
		for lvl := 1; lvl <= sub.Depth(); lvl++ {
			out = append(out, ItemCount{List: si + 1, Level: lvl, Count: sub.Count(lvl)})
		}
	}
	if e.global != nil {
		for lvl := 2; lvl <= e.global.K(); lvl++ {
			out = append(out, ItemCount{List: 0, Level: lvl, Count: e.global.Count(lvl)})
		}
	}
	return out
}

// WriteState dumps the engine's live state (per-item populations and
// counters) for diagnostics.
func (e *Engine) WriteState(w io.Writer) {
	fmt.Fprintf(w, "decomposition k=%d, storage items:\n", e.K())
	for _, ic := range e.ItemCounts() {
		name := fmt.Sprintf("L%d^%d", ic.List, ic.Level)
		fmt.Fprintf(w, "  %-8s %d\n", name, ic.Count)
	}
	fmt.Fprintf(w, "edges in=%d out=%d discarded=%d, joins scanned=%d candidates=%d materialized=%d, partials +%d -%d, matches=%d\n",
		e.stats.EdgesIn.Load(), e.stats.EdgesOut.Load(), e.stats.Discarded.Load(),
		e.stats.JoinScanned.Load(), e.stats.JoinCandidates.Load(), e.stats.JoinMaterialized.Load(),
		e.stats.PartialIns.Load(), e.stats.PartialDel.Load(),
		e.stats.Matches.Load())
}

// SubCardinalities returns the current number of complete matches of
// each TC-subquery (the population of each sub-list's last item), in
// decomposition order. Call while quiescent. The adaptive reoptimizer
// feeds these observed cardinalities back into join-order selection.
func (e *Engine) SubCardinalities() []int {
	out := make([]int, len(e.subs))
	for i, sub := range e.subs {
		out[i] = sub.Count(sub.Depth())
	}
	return out
}

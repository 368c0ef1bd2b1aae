package main

import (
	"fmt"

	"timingsubg/internal/baseline/incmat"
	"timingsubg/internal/core"
	"timingsubg/internal/graph"
	"timingsubg/internal/iso"
	"timingsubg/internal/match"
	"timingsubg/internal/query"
)

// multiset fingerprints a bag of matches without keeping them: the
// count plus the wrapping sum of one hash per match, so two bags are
// compared in O(1) whatever order their matches arrived in.
type multiset struct {
	Count int64
	Sum   uint64
}

func (m *multiset) add(h uint64) {
	m.Count++
	m.Sum += h
}

// A match is identified by the timestamps of its bound data edges in
// query-edge order: timestamps are unique stream-wide, while edge IDs
// are per-member arrival indexes on a routed fleet. FNV-1a, 64 bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashTime(h uint64, t int64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(t>>(8*i)))) * fnvPrime
	}
	return h
}

func hashMatch(m *match.Match) uint64 {
	h := uint64(fnvOffset)
	for i := range m.Edges {
		h = hashTime(h, int64(m.Edges[i].Time))
	}
	return h
}

// incmatPrefix is how many leading edges the IncMat baseline re-checks.
// IncMat re-searches the affected area on every edge, which on the dense
// SocialStream window costs ~0.5 ms an edge; 2 000 edges keep the check
// under a second of every run.
const incmatPrefix = 2000

// oracleMember is one query's plain serial engine with its own window.
// Like a routed fleet member it is fed only the edges that can match one
// of its query edges; every other edge is discarded by core in O(1) and
// changes nothing, and skipping it keeps a 33-query oracle affordable.
type oracleMember struct {
	eng    *core.Engine
	stream *graph.Stream
	set    multiset
	buf    []query.EdgeID
}

// reference computes, per query, the multiset of matches a plain serial
// core.Engine reports over the first cut edges of the stream, for each
// cut (ascending) — the oracle the server's SSE output and the layer
// recomposition are held to. On the way it checks its own first
// incmatPrefix edges against the IncMat baseline, an implementation
// that shares no matching code with core.
func reference(in *inputs, cuts ...int) ([]map[string]multiset, error) {
	window := graph.Timestamp(in.w.window)
	members := make([]*oracleMember, len(in.queries))
	for i, nq := range in.queries {
		m := &oracleMember{stream: graph.NewStream(window)}
		m.eng = core.New(nq.q, core.Config{OnMatch: func(mt *match.Match) { m.set.add(hashMatch(mt)) }})
		members[i] = m
	}
	snapshot := func() map[string]multiset {
		out := make(map[string]multiset, len(members))
		for i, nq := range in.queries {
			out[nq.name] = members[i].set
		}
		return out
	}
	n := cuts[len(cuts)-1]
	prefix := min(n, incmatPrefix)
	var atPrefix map[string]multiset
	var out []map[string]multiset
	for i := 0; i <= n; i++ {
		if i == prefix {
			atPrefix = snapshot()
		}
		for len(out) < len(cuts) && cuts[len(out)] == i {
			out = append(out, snapshot())
		}
		if i == n {
			break
		}
		e := in.edges[i]
		for j, m := range members {
			if m.buf = in.queries[j].q.MatchingEdgesInto(e, m.buf); len(m.buf) == 0 {
				continue
			}
			stored, expired, err := m.stream.Push(e)
			if err != nil {
				return nil, fmt.Errorf("oracle: edge %d: %w", i, err)
			}
			m.eng.ProcessBatch(stored, expired)
		}
	}
	if len(out) != len(cuts) {
		return nil, fmt.Errorf("oracle: cuts %v are not ascending", cuts)
	}

	st := graph.NewStream(window)
	base := make([]multiset, len(in.queries))
	matchers := make([]*incmat.Matcher, len(in.queries))
	for i, nq := range in.queries {
		acc := &base[i]
		matchers[i] = incmat.New(nq.q, iso.QuickSI, func(m *match.Match) { acc.add(hashMatch(m)) })
	}
	for i := 0; i < prefix; i++ {
		stored, expired, err := st.Push(in.edges[i])
		if err != nil {
			return nil, err
		}
		for _, im := range matchers {
			im.Process(stored, expired)
		}
	}
	for i, nq := range in.queries {
		if base[i] != atPrefix[nq.name] {
			return nil, fmt.Errorf("oracle: query %s: core reports %+v over the first %d edges, IncMat %+v",
				nq.name, atPrefix[nq.name], prefix, base[i])
		}
	}
	return out, nil
}

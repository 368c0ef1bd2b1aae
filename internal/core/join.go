package core

import (
	"slices"

	"timingsubg/internal/explist"
	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/query"
)

// levelJoin precomputes, for global item x (joining the prefix
// Q¹∪…∪Q^{x−1} with Q^x), exactly which checks the compatibility join
// ⋈ᵀ needs: which query vertices are shared, which are newly bound by
// the right side, which timing-order pairs cross the two sides, and
// whether two query edges could ever bind the same data edge. The
// generic match.Compatible scans all O(V²+E²) combinations per candidate
// pair; with the metadata the join costs only what the query structure
// demands — in particular an empty timing order costs no timing checks,
// which is what keeps Timing ahead of SJ-tree at large decomposition
// sizes (Figs. 23-24). The cascade runs the checks compiled against the
// stored side's raw path (storedLeft, storedRight), so a candidate is
// checked where it is stored and only a pair that joins is built into
// a match.
type levelJoin struct {
	// shared lists query vertices bound on both sides; bindings must
	// agree.
	shared []query.VertexID
	// newV lists query vertices bound only by the right side; their
	// images must not collide with any left-side image.
	newV []query.VertexID
	// leftV lists the query vertices bound by the left side, used for
	// collision checks against newV images.
	leftV []query.VertexID
	// cross lists timing constraints across the sides as (l, r, leftFirst):
	// leftFirst means left edge l must precede right edge r.
	cross []crossOrder
	// dupCheck is set when some left edge and some right edge could bind
	// the same data edge (same endpoint-label/edge-label pattern AND
	// overlapping endpoints), requiring the full reuse scan.
	dupCheck bool
	// storedLeft and storedRight are these checks compiled against the
	// raw path of a stored left side (global item x−1, or L₀¹ for x = 2)
	// and of a stored right side (sub-list x's last item).
	storedLeft, storedRight pathJoin
}

type crossOrder struct {
	l, r      query.EdgeID
	leftFirst bool
}

// buildJoins computes levelJoin metadata for global items 2..k; index 0
// and 1 are unused.
func buildJoins(q *query.Query, dec *query.Decomposition) []levelJoin {
	k := dec.K()
	joins := make([]levelJoin, k+1)
	var prefixMask uint64
	for x := 2; x <= k; x++ {
		prefixMask |= dec.Subqueries[x-2].Mask
		rightMask := dec.Subqueries[x-1].Mask
		j := &joins[x]
		*j = makeLevelJoin(q, prefixMask, rightMask)
		j.storedLeft = j.compile(q, explist.GlobalPath(dec, x-1), true)
		j.storedRight = j.compile(q, dec.Subqueries[x-1].Seq, false)
	}
	return joins
}

func makeLevelJoin(q *query.Query, leftMask, rightMask uint64) levelJoin {
	var j levelJoin
	leftV := vertexSetOf(q, leftMask)
	rightV := vertexSetOf(q, rightMask)
	for v := 0; v < q.NumVertices(); v++ {
		switch {
		case leftV[v] && rightV[v]:
			j.shared = append(j.shared, query.VertexID(v))
		case rightV[v]:
			j.newV = append(j.newV, query.VertexID(v))
		}
		if leftV[v] {
			j.leftV = append(j.leftV, query.VertexID(v))
		}
	}
	for l := 0; l < q.NumEdges(); l++ {
		if leftMask&(1<<uint(l)) == 0 {
			continue
		}
		for r := 0; r < q.NumEdges(); r++ {
			if rightMask&(1<<uint(r)) == 0 {
				continue
			}
			le, re := query.EdgeID(l), query.EdgeID(r)
			if q.Precedes(le, re) {
				j.cross = append(j.cross, crossOrder{l: le, r: re, leftFirst: true})
			}
			if q.Precedes(re, le) {
				j.cross = append(j.cross, crossOrder{l: le, r: re, leftFirst: false})
			}
			if !j.dupCheck && edgesCouldShareData(q, le, re) {
				j.dupCheck = true
			}
		}
	}
	return j
}

func vertexSetOf(q *query.Query, mask uint64) []bool {
	set := make([]bool, q.NumVertices())
	for e := 0; mask != 0; e++ {
		if mask&1 != 0 {
			qe := q.Edge(query.EdgeID(e))
			set[qe.From] = true
			set[qe.To] = true
		}
		mask >>= 1
	}
	return set
}

// edgesCouldShareData reports whether one data edge could bind both a
// and b: the endpoint labels must coincide and the edge labels must be
// compatible (equal, or either unlabelled). Only then does the join need
// the full data-edge reuse scan.
func edgesCouldShareData(q *query.Query, a, b query.EdgeID) bool {
	ea, eb := q.Edge(a), q.Edge(b)
	if q.VertexLabel(ea.From) != q.VertexLabel(eb.From) || q.VertexLabel(ea.To) != q.VertexLabel(eb.To) {
		return false
	}
	return ea.Label == eb.Label || ea.Label == graph.NoLabel || eb.Label == graph.NoLabel
}

// pathJoin is a levelJoin compiled against one stored side's raw path
// (explist.PathOrder): each check reads the stored side at a path
// position and the other side, the delta row, from values load takes
// from its match once per row. Every check is a conjunct, so the order
// they run in changes no verdict; sharedOK runs first because it alone
// decides a genuine candidate.
type pathJoin struct {
	// order binds a passing path into the merged match.
	order explist.PathOrder
	// shared[i] is where the path binds the join's i-th shared vertex,
	// sharedV[i].
	shared  []pathVertex
	sharedV []query.VertexID
	// inj is where the path binds each query vertex of the stored side
	// whose image must avoid the delta's images of deltaInj: the left
	// side's vertices against the right side's newly bound ones.
	inj      []pathVertex
	deltaInj []query.VertexID
	// cross is the timing constraints across the sides.
	cross []pathTiming
	// dup is levelJoin.dupCheck: the stored path's data edges must
	// avoid the delta's.
	dup bool
}

// pathVertex locates a vertex binding in a raw path: the From or To
// endpoint of the edge at position pos.
type pathVertex struct {
	pos int
	to  bool
}

func (pv pathVertex) of(path []graph.Edge) graph.VertexID {
	if pv.to {
		return path[pv.pos].To
	}
	return path[pv.pos].From
}

// pathTiming is one cross timing constraint: the stored edge at path
// position pos and the delta's edge delta must be strictly ordered,
// the stored one first when storedFirst.
type pathTiming struct {
	pos         int
	delta       query.EdgeID
	storedFirst bool
}

// compile returns j's checks against a stored side whose raw paths bind
// order, the left side when storedLeft.
func (j *levelJoin) compile(q *query.Query, order []query.EdgeID, storedLeft bool) pathJoin {
	where := func(v query.VertexID) pathVertex {
		for i, qe := range order {
			if e := q.Edge(qe); e.From == v {
				return pathVertex{pos: i}
			} else if e.To == v {
				return pathVertex{pos: i, to: true}
			}
		}
		panic("core: join vertex not bound by the stored side's path")
	}
	at := func(qe query.EdgeID) int {
		if i := slices.Index(order, qe); i >= 0 {
			return i
		}
		panic("core: join edge not bound by the stored side's path")
	}
	pj := pathJoin{order: explist.NewPathOrder(q, order), sharedV: j.shared, dup: j.dupCheck}
	for _, v := range j.shared {
		pj.shared = append(pj.shared, where(v))
	}
	stored, delta := j.leftV, j.newV
	if !storedLeft {
		stored, delta = j.newV, j.leftV
	}
	for _, v := range stored {
		pj.inj = append(pj.inj, where(v))
	}
	pj.deltaInj = delta
	for _, c := range j.cross {
		if storedLeft {
			pj.cross = append(pj.cross, pathTiming{pos: at(c.l), delta: c.r, storedFirst: c.leftFirst})
		} else {
			pj.cross = append(pj.cross, pathTiming{pos: at(c.r), delta: c.l, storedFirst: !c.leftFirst})
		}
	}
	return pj
}

// deltaRow is the delta row's side of a pathJoin's checks, loaded once
// per row: its shared bindings, its injectivity images, the times of
// its cross-constrained edges and, for dup, its data edge IDs.
type deltaRow struct {
	shared, inj []graph.VertexID
	times       []graph.Timestamp
	ids         []graph.EdgeID
}

// load fills r from the delta row's match m.
func (pj *pathJoin) load(r *deltaRow, m *match.Match) {
	r.shared, r.inj, r.times, r.ids = r.shared[:0], r.inj[:0], r.times[:0], r.ids[:0]
	for _, v := range pj.sharedV {
		r.shared = append(r.shared, m.Vtx[v])
	}
	for _, v := range pj.deltaInj {
		r.inj = append(r.inj, m.Vtx[v])
	}
	for _, c := range pj.cross {
		r.times = append(r.times, m.Edges[c.delta].Time)
	}
	if pj.dup {
		for e := range m.Edges {
			if id := m.Edges[e].ID; id != match.NoEdge {
				r.ids = append(r.ids, id)
			}
		}
	}
}

// sharedOK reports whether path agrees with the delta row on every
// shared binding: the equality the fingerprint index guarantees up to
// hash collisions, and the definition of a genuine candidate for the
// JoinCandidates counter.
func (pj *pathJoin) sharedOK(path []graph.Edge, r *deltaRow) bool {
	for i, pv := range pj.shared {
		if pv.of(path) != r.shared[i] {
			return false
		}
	}
	return true
}

// tailOK applies the remaining checks: injectivity of the union,
// cross timing constraints and (when structurally possible) data-edge
// reuse.
func (pj *pathJoin) tailOK(path []graph.Edge, r *deltaRow) bool {
	for _, pv := range pj.inj {
		v := pv.of(path)
		for _, img := range r.inj {
			if v == img {
				return false
			}
		}
	}
	for i, c := range pj.cross {
		st, dt := path[c.pos].Time, r.times[i]
		if c.storedFirst {
			if st >= dt {
				return false
			}
		} else if dt >= st {
			return false
		}
	}
	if pj.dup {
		for e := range path {
			for _, id := range r.ids {
				if path[e].ID == id {
					return false
				}
			}
		}
	}
	return true
}

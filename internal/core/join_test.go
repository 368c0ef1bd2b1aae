package core

import (
	"math/rand"
	"testing"

	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/query"
)

// compatible is the reference the compiled pathJoin checks are tested
// against: levelJoin's metadata applied to two materialized matches. It
// is equivalent to left.Compatible(q, right) for matches with the
// expected bound-edge masks (TestLevelJoinMatchesGeneric).
func (j *levelJoin) compatible(left, right *match.Match) bool {
	return j.sharedEqual(left, right) && j.compatibleTail(left, right)
}

// sharedEqual checks only the shared-vertex binding agreement.
func (j *levelJoin) sharedEqual(left, right *match.Match) bool {
	for _, v := range j.shared {
		if left.Vtx[v] != right.Vtx[v] {
			return false
		}
	}
	return true
}

// compatibleTail applies the remaining checks after sharedEqual:
// injectivity of newly bound vertices, cross timing constraints and
// (when structurally possible) data-edge reuse.
func (j *levelJoin) compatibleTail(left, right *match.Match) bool {
	for _, v := range j.newV {
		rv := right.Vtx[v]
		for _, lv := range j.leftV {
			if left.Vtx[lv] == rv {
				return false
			}
		}
	}
	for _, c := range j.cross {
		lt := left.Edges[c.l].Time
		rt := right.Edges[c.r].Time
		if c.leftFirst {
			if lt >= rt {
				return false
			}
		} else if rt >= lt {
			return false
		}
	}
	if j.dupCheck {
		for e := range right.Edges {
			if right.Edges[e].ID != match.NoEdge && left.HasDataEdge(right.Edges[e].ID) {
				return false
			}
		}
	}
	return true
}

// runningExample builds the paper's running-example query (Fig. 5),
// which decomposes into three TC-subqueries.
func runningExample(t *testing.T) *query.Query {
	t.Helper()
	labels := graph.NewLabels()
	la, lb, lc := labels.Intern("a"), labels.Intern("b"), labels.Intern("c")
	ld, le, lf := labels.Intern("d"), labels.Intern("e"), labels.Intern("f")
	b := query.NewBuilder()
	va, vb, vc := b.AddVertex(la), b.AddVertex(lb), b.AddVertex(lc)
	vd, ve, vf := b.AddVertex(ld), b.AddVertex(le), b.AddVertex(lf)
	e1 := b.AddEdge(va, vb)
	b.AddEdge(vb, vc)
	e3 := b.AddEdge(vd, vb)
	e4 := b.AddEdge(vd, vc)
	e5 := b.AddEdge(vc, ve)
	e6 := b.AddEdge(ve, vf)
	b.Before(e6, e3)
	b.Before(e3, e1)
	b.Before(e6, e5)
	b.Before(e5, e4)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestLevelJoinMatchesGeneric cross-checks the specialized levelJoin
// compatibility against match.Compatible on randomly generated left
// (prefix) and right (Q^x) matches of the running-example decomposition:
// the two must agree on every pair.
func TestLevelJoinMatchesGeneric(t *testing.T) {
	q := runningExample(t)
	dec := query.Decompose(q)
	joins := buildJoins(q, dec)
	rng := rand.New(rand.NewSource(4))

	// randMatch binds the edges of the given subquery mask to random
	// data edges with consistent, internally injective endpoints — the
	// invariant every stored partial match satisfies. Vertices are drawn
	// without replacement from a small pool so CROSS-side collisions and
	// agreements occur often; edge IDs are drawn from a per-side range so
	// they never collide across sides (as in a real stream, where one
	// data edge cannot carry two different label patterns).
	randMatch := func(mask uint64, idBase int64) *match.Match {
		m := match.New(q)
		assign := make(map[query.VertexID]graph.VertexID)
		used := make(map[graph.VertexID]bool)
		pick := func(v query.VertexID) graph.VertexID {
			if dv, ok := assign[v]; ok {
				return dv
			}
			for {
				dv := graph.VertexID(rng.Intn(10))
				if !used[dv] {
					used[dv] = true
					assign[v] = dv
					return dv
				}
			}
		}
		id := graph.EdgeID(idBase + rng.Int63n(1000))
		for e := 0; e < q.NumEdges(); e++ {
			if mask&(1<<uint(e)) == 0 {
				continue
			}
			qe := q.Edge(query.EdgeID(e))
			from := pick(qe.From)
			to := pick(qe.To)
			id++
			m.Edges[e] = graph.Edge{
				ID: id, From: from, To: to,
				FromLabel: q.VertexLabel(qe.From), ToLabel: q.VertexLabel(qe.To),
				Time: graph.Timestamp(rng.Intn(40) + 1),
			}
			m.Vtx[qe.From] = from
			m.Vtx[qe.To] = to
			m.EdgeMask |= 1 << uint(e)
		}
		return m
	}

	var prefix uint64
	for x := 2; x <= dec.K(); x++ {
		prefix |= dec.Subqueries[x-2].Mask
		right := dec.Subqueries[x-1].Mask
		j := &joins[x]
		agreeChecked := 0
		for trial := 0; trial < 3000; trial++ {
			l := randMatch(prefix, 1_000_000)
			r := randMatch(right, 2_000_000)
			want := l.Compatible(q, r)
			got := j.compatible(l, r)
			if want != got {
				t.Fatalf("level %d trial %d: generic=%v specialized=%v\nleft=%s\nright=%s",
					x, trial, want, got, l, r)
			}
			agreeChecked++
		}
		if agreeChecked == 0 {
			t.Fatalf("level %d: no pairs checked", x)
		}
	}
}

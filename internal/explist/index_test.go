package explist

import (
	"testing"

	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/query"
)

// edgeAB builds a data edge for the path query's position pos with the
// given endpoints and time.
func pathEdge(ls []graph.Label, pos int, from, to int64, tm int64) graph.Edge {
	return graph.Edge{
		ID: graph.EdgeID(tm), From: graph.VertexID(from), To: graph.VertexID(to),
		FromLabel: ls[pos-1], ToLabel: ls[pos], Time: graph.Timestamp(tm),
	}
}

// TestTreeSubListCandidateIndex verifies the interior-item vertex index:
// EachCandidate(lvl, v) returns exactly the stored prefixes whose
// binding of the item's connecting vertex is v, in insertion order, and
// deletion drops entries from the buckets.
func TestTreeSubListCandidateIndex(t *testing.T) {
	q, sub, ls := pathSetup(t)
	l := NewTreeSubList(q, sub)

	// Level 1 stores a→b edges, indexed by their binding of query vertex
	// b — the connecting vertex of position 2 (the From endpoint of the
	// b→c sequence edge).
	cv, useFrom, ok := sub.ConnectingVertex(q, 2)
	if !ok || !useFrom || cv != 1 {
		t.Fatalf("position 2 must connect via b (From of b→c): got cv=%d useFrom=%v ok=%v", cv, useFrom, ok)
	}
	h1 := l.Insert(1, NoHandle, pathEdge(ls, 1, 10, 20, 1))
	l.Insert(1, NoHandle, pathEdge(ls, 1, 11, 21, 2))
	l.Insert(1, NoHandle, pathEdge(ls, 1, 12, 20, 3))
	if h1 == NoHandle {
		t.Fatal("insert failed")
	}

	collect := func(v graph.VertexID) []graph.VertexID {
		var froms []graph.VertexID
		l.EachCandidate(1, v, new(Scratch), func(_ Handle, m *match.Match) bool {
			froms = append(froms, m.Edges[sub.Seq[0]].From)
			return true
		})
		return froms
	}
	got := collect(20)
	if len(got) != 2 || got[0] != 10 || got[1] != 12 {
		t.Fatalf("candidates for b=20: want From [10 12], got %v", got)
	}
	if got := collect(21); len(got) != 1 || got[0] != 11 {
		t.Fatalf("candidates for b=21: want From [11], got %v", got)
	}
	if got := collect(99); len(got) != 0 {
		t.Fatalf("candidates for unseen binding: want none, got %v", got)
	}

	// Kill the edge with ID 1 (the 10→20 prefix): its bucket entry must
	// go with it.
	if dead := l.DeleteLevel(1, 1, nil, nil); len(dead) != 1 {
		t.Fatalf("want 1 casualty, got %d", len(dead))
	}
	if got := collect(20); len(got) != 1 || got[0] != 12 {
		t.Fatalf("candidates for b=20 after delete: want From [12], got %v", got)
	}
}

// TestTreeJoinFingerprintAgreement verifies that the stored-side key
// function (path extraction) and the probe-side JoinFingerprint
// (materialized bindings) compute the same fingerprint: a stored
// complete match must be found under the fingerprint of its own
// materialization.
func TestTreeJoinFingerprintAgreement(t *testing.T) {
	q, sub, ls := pathSetup(t)
	l := NewTreeSubList(q, sub)
	// Fingerprint the last item by vertices {b, d} — a stand-in shared
	// set touching two different path positions.
	shared := []query.VertexID{1, 3}
	l.SetJoinKey(shared)

	h1 := l.Insert(1, NoHandle, pathEdge(ls, 1, 10, 20, 1))
	h2 := l.Insert(2, h1, pathEdge(ls, 2, 20, 30, 2))
	h3 := l.Insert(3, h2, pathEdge(ls, 3, 30, 40, 3))
	if h3 == NoHandle {
		t.Fatal("insert failed")
	}
	full := l.Materialize(3, h3)
	fp := JoinFingerprint(full, shared)
	found := 0
	l.EachJoinCandidate(fp, new(Scratch), func(h Handle, path []graph.Edge) bool {
		if h == h3 {
			found++
			// The raw path is the stored edges in sequence order.
			for i, d := range path {
				if d.ID != graph.EdgeID(i+1) || d.From != graph.VertexID(10*(i+1)) {
					t.Errorf("path position %d holds edge %d from %d", i, d.ID, d.From)
				}
			}
		}
		return true
	})
	if found != 1 {
		t.Fatalf("stored match not found under its own fingerprint (found=%d)", found)
	}
	// A different shared binding must not collide into a hit list that
	// omits checking: an unrelated fingerprint returns nothing.
	if fp2 := JoinFingerprint(full, []query.VertexID{0, 2}); fp2 != fp {
		none := 0
		l.EachJoinCandidate(fp2, new(Scratch), func(Handle, []graph.Edge) bool { none++; return true })
		if none != 0 {
			t.Fatalf("unrelated fingerprint matched %d stored entries", none)
		}
	}
}

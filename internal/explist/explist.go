// Package explist implements expansion lists (Definition 9): the ordered
// sequence of items L¹..Lᵏ that store the partial matches of each
// prerequisite subquery of a TC-subquery, and the global list L₀ that
// stores the partial join results across TC-subqueries (Section III-B).
//
// Two storage backends exist: the MS-tree backend (the paper's Timing
// system) and an independent backend that stores every partial match as a
// standalone copy (the paper's Timing-IND ablation).
//
// The MS-tree backend additionally maintains per-item vertex join
// indexes so the engine's INSERT probes are O(candidates) instead of
// O(item): interior items are bucketed by the binding of the item's
// connecting query vertex (the vertex an extending data edge must agree
// on), and last items / global items by the shared-binding fingerprint
// of the join they feed. The independent backend keeps the paper's
// Timing-IND scan semantics: its candidate enumerators visit every
// stored match.
package explist

import (
	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/mstree"
	"timingsubg/internal/query"
)

// Handle identifies a stored partial match inside a list: a slot of the
// item's MS-tree level, or of the independent backend's entry table.
// Handles let the engine extend matches in O(1) and cascade deletions
// without re-searching. A Handle is an integer, not an interface, so
// passing one around never boxes it.
type Handle = mstree.Slot

// NoHandle is the zero Handle: no stored match (the parent of an item-1
// insert).
const NoHandle = mstree.NoSlot

// SubList stores the expansion list Lᵢ of one TC-subquery: item j holds
// the matches of the prerequisite subquery Preq(εⱼ) = {ε₁..εⱼ}.
type SubList interface {
	// Depth returns |Qi|, the number of items.
	Depth() int
	// Count returns the number of matches stored at item lvl (1-based).
	Count(lvl int) int
	// Each calls fn with each stored match of item lvl until fn returns
	// false. The *match.Match passed to fn is scratch reused across
	// iterations; fn must Clone it to retain it.
	Each(lvl int, fn func(h Handle, m *match.Match) bool)
	// EachCandidate calls fn with each stored match of interior item lvl
	// (1 ≤ lvl < Depth()) whose binding of the item's connecting query
	// vertex — ConnectingVertex(lvl+1) — equals v. The MS-tree backend
	// resolves this with an index lookup, materializing each match into
	// sc; the independent backend scans the whole item and ignores sc
	// (callers re-check the binding either way). Scratch semantics
	// match Each.
	EachCandidate(lvl int, v graph.VertexID, sc *Scratch, fn func(h Handle, m *match.Match) bool)
	// EachJoinCandidate calls fn with the raw path of each stored match
	// of the LAST item whose shared-binding fingerprint (JoinFingerprint
	// over the shared vertex set installed by SetJoinKey) equals fp: its
	// data edges in sequence order, endpoint labels unspecified (see
	// PathOrder). The MS-tree backend reads each path into sc in one
	// walk up the tree and binds no match; the independent backend scans
	// the item and reads each path from its stored copy. The path is
	// scratch reused across iterations.
	EachJoinCandidate(fp uint64, sc *Scratch, fn func(h Handle, path []graph.Edge) bool)
	// SetJoinKey installs the shared query-vertex set of the global join
	// this sub-list's complete matches feed, enabling the last item's
	// fingerprint index. Must be called before any insert; the
	// independent backend ignores it.
	SetJoinKey(shared []query.VertexID)
	// Insert stores the match obtained by extending parent with data edge
	// e (bound to the lvl-th sequence edge); parent is NoHandle for lvl 1
	// and otherwise a stored match of item lvl−1.
	Insert(lvl int, parent Handle, e graph.Edge) Handle
	// Materialize rebuilds a fresh copy of the match identified by h at
	// item lvl.
	Materialize(lvl int, h Handle) *match.Match
	// DeleteLevel removes at item lvl every match containing expired edge
	// edgeID and every extension of parentCasualties, appending this
	// level's casualties to dst and returning it. edgeID must be the
	// window's oldest edge (expiry is oldest-first): the MS-tree backend
	// then finds its item-1 match at item 1's head and every deeper
	// casualty as an extension; independent storage scans for it.
	DeleteLevel(lvl int, edgeID graph.EdgeID, parentCasualties, dst []Handle) []Handle
	// DeleteExpired removes at item lvl every match whose oldest data
	// edge is older than watermark, appending them to dst and returning
	// it. It is the batch counterpart of DeleteLevel: one call per item
	// covers every edge a window slide expires. parentCasualties must be
	// item lvl−1's return (nil at item 1). The MS-tree backend pops item
	// 1's arrival-ordered prefix and reaches deeper casualties as their
	// extensions; independent storage scans its death-time keys instead.
	// Either way, an item with no casualty means none in the items after
	// it.
	DeleteExpired(lvl int, watermark graph.Timestamp, parentCasualties, dst []Handle) []Handle
	// SpaceBytes estimates resident bytes (call while quiescent).
	SpaceBytes() int64
}

// GlobalList stores the expansion list L₀ over a decomposition
// {Q¹..Qᵏ}: item i holds matches of Q¹∪..∪Qⁱ. Item 1 aliases the last
// item of the first sub-list (Section V-A), so a GlobalList only
// materializes items 2..k.
type GlobalList interface {
	// K returns the decomposition size.
	K() int
	// Count returns the number of matches at item lvl (lvl ≥ 2).
	Count(lvl int) int
	// Each calls fn with each stored match of item lvl (≥ 2). The match
	// is scratch reused across iterations; Clone to retain.
	Each(lvl int, fn func(h Handle, m *match.Match) bool)
	// EachCandidate calls fn with the raw path of each stored match of
	// item lvl whose shared-binding fingerprint for join level lvl+1 (the
	// shared sets installed by SetJoinKeys) equals fp: the sub-paths of
	// Q¹..Q^lvl concatenated in decomposition order (GlobalPath), endpoint
	// labels unspecified. Backend semantics and scratch rules are as in
	// SubList.EachJoinCandidate.
	EachCandidate(lvl int, fp uint64, sc *Scratch, fn func(h Handle, path []graph.Edge) bool)
	// SetJoinKeys installs the per-join shared query-vertex sets:
	// sharedByJoin[x] is the shared set of global join level x (2..k).
	// Item lvl (2 ≤ lvl < k) is then indexed by the fingerprint of
	// sharedByJoin[lvl+1] — the join its stored matches are the left
	// side of. Must be called before any insert; the independent backend
	// ignores it.
	SetJoinKeys(sharedByJoin [][]query.VertexID)
	// Insert stores the join of parent (an item lvl−1 handle; for lvl ==
	// 2 a handle from the first sub-list's last item) with the submatch
	// of Q^lvl identified by sub (a handle from sub-list lvl's last
	// item). Both must be stored.
	Insert(lvl int, parent, sub Handle) Handle
	// Materialize rebuilds a fresh copy of the combined match at item lvl.
	Materialize(lvl int, h Handle) *match.Match
	// DeleteLevel removes at item lvl every match whose Q^lvl submatch is
	// in deadSubs, every extension of parentCasualties, and (independent
	// backend) every match containing edgeID, appending this level's
	// casualties to dst and returning it.
	DeleteLevel(lvl int, deadSubs, parentCasualties []Handle, edgeID graph.EdgeID, dst []Handle) []Handle
	// DeleteExpired removes at item lvl every match holding a data edge
	// older than watermark, appending them to dst and returning it;
	// semantics as in SubList.DeleteExpired. deadSubs must be the
	// complete submatches of Q^lvl the slide expired and
	// parentCasualties item lvl−1's return (for lvl == 2, those of Q¹):
	// the MS-tree backend finds its casualties through them, as
	// DeleteLevel does, and independent storage scans instead.
	DeleteExpired(lvl int, watermark graph.Timestamp, deadSubs, parentCasualties, dst []Handle) []Handle
	// SpaceBytes estimates resident bytes (call while quiescent).
	SpaceBytes() int64
}

// ---------------------------------------------------------------------
// Join fingerprints
// ---------------------------------------------------------------------

// FNV-1a constants; the fingerprint must be computed identically by the
// engine (from a materialized match) and the storage backends (from
// stored paths), so both fold bindings through fpMix in shared-set
// order.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fpMix folds one vertex binding into a running FNV-1a hash.
func fpMix(h uint64, v graph.VertexID) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= fnvPrime
		u >>= 8
	}
	return h
}

// JoinFingerprint hashes m's bindings of the shared query vertices of a
// join level, in slice order. Two matches with equal shared bindings
// always collide (the index must return every genuine candidate); hash
// collisions between different bindings are harmless — the engine
// re-checks full compatibility per candidate. An empty shared set
// yields a constant: every stored match is a candidate (the join is a
// cross product) and the index degrades to a scan of one bucket.
func JoinFingerprint(m *match.Match, shared []query.VertexID) uint64 {
	h := fnvOffset
	for _, v := range shared {
		h = fpMix(h, m.Vtx[v])
	}
	return h
}

// ---------------------------------------------------------------------
// MS-tree backend
// ---------------------------------------------------------------------

// Scratch is the buffer a candidate enumeration reads each visited
// match into: a raw path for the join enumerators, a materialized match
// for EachCandidate. The caller owns it: one scratch serves a whole
// insert, so steady-state probes allocate nothing. The zero value is
// ready to use; its match is allocated on first use.
type Scratch struct {
	m    *match.Match
	ebuf []graph.Edge
}

// match returns sc's match for query q, allocating it on first use.
func (sc *Scratch) match(q *query.Query) *match.Match {
	if sc.m == nil {
		sc.m = match.New(q)
	}
	return sc.m
}

// path returns sc's edge buffer at length n.
func (sc *Scratch) path(n int) []graph.Edge {
	if cap(sc.ebuf) < n {
		sc.ebuf = make([]graph.Edge, n)
	}
	return sc.ebuf[:n]
}

// ---------------------------------------------------------------------
// Raw paths
// ---------------------------------------------------------------------

// PathOrder names the query edge that each position of a raw path is
// bound to. A raw path is a stored match as the MS-tree keeps it: its
// data edges in storage order, without endpoint labels (the tree does
// not store them, because the query edge fixes them). A sub-list's
// paths follow its timing sequence and a global item's follow
// GlobalPath; a shorter path (an interior item) binds a prefix of the
// order.
type PathOrder struct {
	// Edges[i] is the query edge bound by path position i.
	Edges []query.EdgeID
	// labels[i] is the endpoint labels of Edges[i].
	labels [][2]graph.Label
}

// NewPathOrder returns the path order binding position i to edges[i].
func NewPathOrder(q *query.Query, edges []query.EdgeID) PathOrder {
	o := PathOrder{Edges: edges, labels: make([][2]graph.Label, len(edges))}
	for i, qe := range edges {
		e := q.Edge(qe)
		o.labels[i] = [2]graph.Label{q.VertexLabel(e.From), q.VertexLabel(e.To)}
	}
	return o
}

// Bind binds every edge of path into m at its position's query edge,
// restoring the endpoint labels from the query.
func (o *PathOrder) Bind(q *query.Query, m *match.Match, path []graph.Edge) {
	for i, d := range path {
		d.FromLabel, d.ToLabel = o.labels[i][0], o.labels[i][1]
		m.Bind(q, o.Edges[i], d)
	}
}

// GlobalPath returns the path order of global item lvl's raw paths: the
// timing sequences of Q¹..Q^lvl concatenated in decomposition order.
// Item 1 is L₀¹, sub-list 1's last item.
func GlobalPath(dec *query.Decomposition, lvl int) []query.EdgeID {
	var edges []query.EdgeID
	for _, sub := range dec.Subqueries[:lvl] {
		edges = append(edges, sub.Seq...)
	}
	return edges
}

// pathEnds returns, for each global item lvl (0..k), the length of its
// raw path: the offset at which Q^(lvl+1)'s sub-path starts.
func pathEnds(dec *query.Decomposition) []int {
	ends := make([]int, dec.K()+1)
	for x, sub := range dec.Subqueries {
		ends[x+1] = ends[x] + sub.Len()
	}
	return ends
}

// TreeSubList is the MS-tree backed SubList.
type TreeSubList struct {
	q    *query.Query
	sub  *query.TCSubquery
	tree *mstree.Tree
	// order binds the tree's paths, restoring the endpoint labels the
	// tree does not store.
	order PathOrder
}

// NewTreeSubList returns an MS-tree backed expansion list for sub, with
// every interior item indexed by the binding of its connecting query
// vertex: item ℓ < |Qi| is only ever probed by an insert at position
// ℓ+1, whose data edge pins that binding to one of its endpoints.
func NewTreeSubList(q *query.Query, sub *query.TCSubquery) *TreeSubList {
	l := &TreeSubList{q: q, sub: sub, tree: mstree.New(sub.Len()), order: NewPathOrder(q, sub.Seq)}
	for lvl := 1; lvl < sub.Len(); lvl++ {
		cv, _, ok := sub.ConnectingVertex(q, lvl+1)
		if !ok {
			continue
		}
		pos, isFrom, ok := sub.BindingSource(q, cv, lvl)
		if !ok {
			continue // unreachable: the connecting vertex is in the prefix
		}
		src := pathSource{pos: pos, isFrom: isFrom}
		l.tree.SetLevelKey(lvl, func(s mstree.Slot) uint64 { return uint64(src.extract(l.tree, lvl, s)) })
	}
	return l
}

// SetJoinKey implements SubList: the last item is indexed by the
// fingerprint of the stored match's bindings of shared.
func (l *TreeSubList) SetJoinKey(shared []query.VertexID) {
	srcs := make([]pathSource, len(shared))
	for i, v := range shared {
		pos, isFrom, ok := l.sub.BindingSource(l.q, v, l.sub.Len())
		if !ok {
			panic("explist: shared join vertex not bound by subquery")
		}
		srcs[i] = pathSource{pos: pos, isFrom: isFrom}
	}
	last := l.sub.Len()
	l.tree.SetLevelKey(last, func(s mstree.Slot) uint64 {
		h := fnvOffset
		for _, src := range srcs {
			h = fpMix(h, src.extract(l.tree, last, s))
		}
		return h
	})
}

// pathSource locates one vertex binding inside a sub-tree path.
type pathSource struct {
	pos    int
	isFrom bool
}

// extract reads the binding from the path ending at slot s of level lvl
// of sub-tree t, walking up to the ancestor at position pos.
func (src pathSource) extract(t *mstree.Tree, lvl int, s mstree.Slot) graph.VertexID {
	for ; lvl > src.pos; lvl-- {
		s = t.Parent(lvl, s)
	}
	if src.isFrom {
		return t.Edge(lvl, s).From
	}
	return t.Edge(lvl, s).To
}

// Tree exposes the underlying MS-tree for tests and space audits.
func (l *TreeSubList) Tree() *mstree.Tree { return l.tree }

// Depth implements SubList.
func (l *TreeSubList) Depth() int { return l.sub.Len() }

// Count implements SubList.
func (l *TreeSubList) Count(lvl int) int { return l.tree.Count(lvl) }

// Each implements SubList with a scratch of its own per call; it is
// off the insert path.
func (l *TreeSubList) Each(lvl int, fn func(Handle, *match.Match) bool) {
	var sc Scratch
	l.tree.Each(lvl, func(s mstree.Slot) bool {
		l.fill(sc.match(l.q), lvl, s, &sc)
		return fn(s, sc.m)
	})
}

// EachCandidate implements SubList: an index lookup on the interior
// item's connecting-vertex buckets; only genuine candidates are
// materialized.
func (l *TreeSubList) EachCandidate(lvl int, v graph.VertexID, sc *Scratch, fn func(Handle, *match.Match) bool) {
	l.tree.EachCandidate(lvl, uint64(v), func(s mstree.Slot) bool {
		l.fill(sc.match(l.q), lvl, s, sc)
		return fn(s, sc.m)
	})
}

// EachJoinCandidate implements SubList: a fingerprint lookup on the
// last item, each candidate's path read up the tree.
func (l *TreeSubList) EachJoinCandidate(fp uint64, sc *Scratch, fn func(Handle, []graph.Edge) bool) {
	last := l.sub.Len()
	path := sc.path(last)
	l.tree.EachCandidate(last, fp, func(s mstree.Slot) bool {
		l.tree.PathEdges(last, s, path)
		return fn(s, path)
	})
}

// Materialize implements SubList.
func (l *TreeSubList) Materialize(lvl int, h Handle) *match.Match {
	m := match.New(l.q)
	l.fill(m, lvl, h, new(Scratch))
	return m
}

// fill rebuilds into m the partial match stored at slot s of item lvl
// by backtracking its path into sc.
func (l *TreeSubList) fill(m *match.Match, lvl int, s mstree.Slot, sc *Scratch) {
	path := l.tree.PathEdges(lvl, s, sc.path(lvl))
	m.Reset()
	l.order.Bind(l.q, m, path)
}

// Insert implements SubList.
func (l *TreeSubList) Insert(lvl int, parent Handle, e graph.Edge) Handle {
	return l.tree.InsertEdge(lvl, parent, e)
}

// DeleteLevel implements SubList: item 1's head if it carries edgeID,
// then the extensions of the previous item's casualties.
func (l *TreeSubList) DeleteLevel(lvl int, edgeID graph.EdgeID, parentCasualties, dst []Handle) []Handle {
	if lvl == 1 {
		return l.tree.ExpireEdge(edgeID, dst)
	}
	return l.tree.DeleteLevel(lvl, parentCasualties, nil, dst)
}

// DeleteExpired implements SubList: item 1's expired prefix, then the
// extensions of the previous item's casualties (Algorithm 2's cascade).
func (l *TreeSubList) DeleteExpired(lvl int, watermark graph.Timestamp, parentCasualties, dst []Handle) []Handle {
	if lvl == 1 {
		return l.tree.ExpirePrefix(watermark, dst)
	}
	return l.tree.DeleteLevel(lvl, parentCasualties, nil, dst)
}

// SpaceBytes implements SubList.
func (l *TreeSubList) SpaceBytes() int64 { return l.tree.SpaceBytes() }

// TreeGlobalList is the MS-tree backed GlobalList: nodes hold slots of
// complete-submatch leaves in the sub-lists' trees rather than copies
// (Section IV-A).
type TreeGlobalList struct {
	q    *query.Query
	dec  *query.Decomposition
	subs []*TreeSubList
	tree *mstree.Tree
	// order binds item k's raw paths, and a prefix of it item lvl's;
	// ends[lvl] is item lvl's path length.
	order PathOrder
	ends  []int
}

// NewTreeGlobalList returns an MS-tree backed L₀ for the decomposition
// over its sub-lists, subs[x-1] storing Q^x.
func NewTreeGlobalList(q *query.Query, dec *query.Decomposition, subs []*TreeSubList) *TreeGlobalList {
	return &TreeGlobalList{q: q, dec: dec, subs: subs, tree: mstree.NewGlobal(dec.K(), subs[0].tree),
		order: NewPathOrder(q, GlobalPath(dec, dec.K())), ends: pathEnds(dec)}
}

// SetJoinKeys implements GlobalList: item lvl (2 ≤ lvl < k) is indexed
// by the fingerprint of its matches' bindings of sharedByJoin[lvl+1] —
// the shared vertex set of the join level those matches feed as the
// stored left side. Item k is never probed and stays unindexed.
func (g *TreeGlobalList) SetJoinKeys(sharedByJoin [][]query.VertexID) {
	for lvl := 2; lvl < g.dec.K(); lvl++ {
		shared := sharedByJoin[lvl+1]
		srcs := make([]globalSource, len(shared))
		for i, v := range shared {
			srcs[i] = g.locate(v, lvl)
		}
		g.tree.SetLevelKey(lvl, func(s mstree.Slot) uint64 {
			h := fnvOffset
			for _, src := range srcs {
				h = fpMix(h, g.extract(src, lvl, s))
			}
			return h
		})
	}
}

// globalSource locates one vertex binding inside a global node's
// composite match: the 1-based TC-subquery holding the vertex and the
// position/endpoint within that subquery's path.
type globalSource struct {
	subIdx int
	pathSource
}

// locate finds where the prefix Q¹..Q^maxSub binds query vertex v.
func (g *TreeGlobalList) locate(v query.VertexID, maxSub int) globalSource {
	for s := 1; s <= maxSub; s++ {
		sub := g.dec.Subqueries[s-1]
		if pos, isFrom, ok := sub.BindingSource(g.q, v, sub.Len()); ok {
			return globalSource{subIdx: s, pathSource: pathSource{pos: pos, isFrom: isFrom}}
		}
	}
	panic("explist: shared join vertex not bound by global prefix")
}

// extract reads src's binding from the global node at slot s of level
// lvl ≥ src.subIdx by navigating to the referenced sub-tree leaf: global
// parents chain down to item 2, whose parent is a leaf of the first
// sub-list's tree, and each item x's sub is a leaf of sub-tree x.
func (g *TreeGlobalList) extract(src globalSource, lvl int, s mstree.Slot) graph.VertexID {
	x := max(src.subIdx, 2)
	for ; lvl > x; lvl-- {
		s = g.tree.Parent(lvl, s)
	}
	if src.subIdx >= 2 {
		s = g.tree.Sub(lvl, s)
	} else {
		s = g.tree.Parent(2, s)
	}
	sl := g.subs[src.subIdx-1]
	return src.pathSource.extract(sl.tree, sl.Depth(), s)
}

// Tree exposes the underlying MS-tree for tests and space audits.
func (g *TreeGlobalList) Tree() *mstree.Tree { return g.tree }

// K implements GlobalList.
func (g *TreeGlobalList) K() int { return g.dec.K() }

// Count implements GlobalList.
func (g *TreeGlobalList) Count(lvl int) int { return g.tree.Count(lvl) }

// Each implements GlobalList with a scratch of its own per call; it
// is off the insert path.
func (g *TreeGlobalList) Each(lvl int, fn func(Handle, *match.Match) bool) {
	var sc Scratch
	g.tree.Each(lvl, func(s mstree.Slot) bool {
		g.fill(sc.match(g.q), lvl, s, &sc)
		return fn(s, sc.m)
	})
}

// EachCandidate implements GlobalList: a fingerprint lookup on item
// lvl's shared-binding buckets, each candidate's path read through the
// sub-trees it references.
func (g *TreeGlobalList) EachCandidate(lvl int, fp uint64, sc *Scratch, fn func(Handle, []graph.Edge) bool) {
	path := sc.path(g.ends[lvl])
	g.tree.EachCandidate(lvl, fp, func(s mstree.Slot) bool {
		g.readPath(lvl, s, path)
		return fn(s, path)
	})
}

// Materialize implements GlobalList.
func (g *TreeGlobalList) Materialize(lvl int, h Handle) *match.Match {
	m := match.New(g.q)
	g.fill(m, lvl, h, new(Scratch))
	return m
}

// fill rebuilds into m the combined match for the global node at slot s
// of item lvl, reading its path into sc.
func (g *TreeGlobalList) fill(m *match.Match, lvl int, s mstree.Slot, sc *Scratch) {
	path := sc.path(g.ends[lvl])
	g.readPath(lvl, s, path)
	m.Reset()
	g.order.Bind(g.q, m, path)
}

// readPath reads the raw path of the global node at slot s of item lvl
// into path (of length ends[lvl]): walk global parents down to item 2,
// whose parent is a leaf of the first sub-list's tree, reading each
// referenced submatch's path into its place along the way.
func (g *TreeGlobalList) readPath(lvl int, s mstree.Slot, path []graph.Edge) {
	for ; lvl >= 2; lvl-- {
		sl := g.subs[lvl-1]
		sl.tree.PathEdges(sl.Depth(), g.tree.Sub(lvl, s), path[g.ends[lvl-1]:g.ends[lvl]])
		s = g.tree.Parent(lvl, s)
	}
	g.subs[0].tree.PathEdges(g.subs[0].Depth(), s, path[:g.ends[1]])
}

// Insert implements GlobalList.
func (g *TreeGlobalList) Insert(lvl int, parent, sub Handle) Handle {
	return g.tree.InsertSub(lvl, parent, sub)
}

// DeleteLevel implements GlobalList.
func (g *TreeGlobalList) DeleteLevel(lvl int, deadSubs, parentCasualties []Handle, _ graph.EdgeID, dst []Handle) []Handle {
	return g.tree.DeleteLevel(lvl, parentCasualties, deadSubs, dst)
}

// DeleteExpired implements GlobalList: a global match expires exactly
// when a submatch it references does, so the slide's casualties are
// those DeleteLevel reaches from the expired submatches.
func (g *TreeGlobalList) DeleteExpired(lvl int, _ graph.Timestamp, deadSubs, parentCasualties, dst []Handle) []Handle {
	return g.tree.DeleteLevel(lvl, parentCasualties, deadSubs, dst)
}

// SpaceBytes implements GlobalList.
func (g *TreeGlobalList) SpaceBytes() int64 { return g.tree.SpaceBytes() }

// Package mstree implements the match-store tree (Section IV): a trie
// variant that stores the partial matches of an expansion list. Each node
// holds one data edge (sub-trees) or a pointer to a complete submatch in
// another tree (the global L₀ tree); the root-to-node path is a partial
// match. Nodes of the same depth are linked in a doubly linked list so a
// level can be enumerated without touching the rest of the tree, and every
// node keeps its parent pointer so a match can be reconstructed by
// backtracking (Section IV-B).
//
// Expiry follows the tree (Algorithm 2). Level 1 is in arrival order —
// attach appends at the tail and edges arrive in timestamp order — and
// every deeper node's edge arrived after its parent's, so the matches a
// window slide expires are a prefix of level 1 (ExpirePrefix) plus the
// cone below it, which DeleteLevel reaches level by level through child
// lists and, in global trees, through the dependency index. No
// time-ordered side structure is kept.
//
// A removed node leaves every structure that a lookup or a later removal
// walks: its level list, its join-index bucket, its edge/dep bucket and
// its parent's child list, which is unlinked unless the parent is
// removed in the same cascade and consumed once. No removed node is
// reachable from the tree, so none carries a removed flag. A Tree is not
// safe for concurrent use.
package mstree

import "timingsubg/internal/graph"

// Node is one match-store tree node.
type Node struct {
	// Parent is the node one level up, or nil for level-1 nodes whose
	// logical parent is the root. For global-tree level-2 nodes the
	// parent belongs to another tree (L₀¹ aliases the first sub-list's
	// last item, Section V-A).
	Parent *Node

	// Edge is the data edge this node contributes (sub-trees).
	Edge graph.Edge

	// Sub points to a complete-submatch leaf in another tree when this
	// node belongs to a global (L₀) tree; nil in sub-trees.
	Sub *Node

	// Level is the 1-based depth of the node within its own tree.
	Level int

	// level list links (all nodes of the same depth).
	nextLvl, prevLvl *Node

	// child links: firstChild heads the list of children; siblings chain
	// through nextSib/prevSib.
	firstChild       *Node
	nextSib, prevSib *Node

	// joinKey is the node's join-index key (levels with a key function
	// only, see Tree.SetLevelKey), computed once at insertion.
	joinKey uint64

	// links chain the node through its index buckets: links[keyLink]
	// through its join-index bucket, links[refLink] through its edgeIdx
	// bucket (sub-trees) or depIdx bucket (global trees) — a node is in
	// exactly one of those two. Removal is O(1) and allocates nothing.
	links [2]link
}

// PathEdges fills buf (reallocating if needed) with the data edges along
// n's path from the root, index 0 being the level-1 edge, and returns the
// slice. It is only meaningful for sub-tree nodes, whose parent chains
// stay within one tree.
func (n *Node) PathEdges(buf []graph.Edge) []graph.Edge {
	depth := n.Level
	if cap(buf) < depth {
		buf = make([]graph.Edge, depth)
	}
	buf = buf[:depth]
	for cur := n; cur != nil; cur = cur.Parent {
		buf[cur.Level-1] = cur.Edge
	}
	return buf
}

// Package mstree implements the match-store tree (Section IV): a trie
// variant that stores the partial matches of an expansion list. Each node
// holds one data edge (sub-trees) or a reference to a complete submatch
// in another tree (the global L₀ tree); the root-to-node path is a
// partial match. Nodes of the same depth are linked in a doubly linked
// list so a level can be enumerated without touching the rest of the
// tree, and every node keeps its parent so a match can be reconstructed
// by backtracking (Section IV-B).
//
// # Slots
//
// Each level stores its nodes in a slab of fixed-size, pointer-free
// structs, and a node is named by its Slot, an index into its level's
// slab; slot 0 is NoSlot. Every link is a Slot, so the garbage collector
// never scans tree state: slabs and index tables hold no pointer.
//
//   - Every slot has a 40 B node: its parent; its level-list, child-list
//     and sibling links; its join-bucket links and join key. Its level
//     is the slab it lives in and is not stored.
//   - A sub-tree slot adds a 40 B edge payload: the data edge's ID,
//     endpoints, time and edge label, 80 B in all. The endpoint labels
//     are not stored: the query edge at the node's level fixes them.
//   - A global slot adds a 12 B sub payload: the slot of its submatch
//     leaf and its dependency-bucket links, 52 B in all.
//   - A level's join index is an open-addressed table of 16 B entries,
//     a key and its bucket's ends; a global level's dependency index is
//     a slice of 8 B buckets indexed by the submatch leaf's slot.
//
// Cross-tree references resolve by level. A global node at level x
// references a leaf of sub-list x's tree, and a global level-2 node's
// parent is a leaf of sub-list 1's tree (L₀¹ aliases that tree's last
// level, Section V-A). A sub-tree leaf has no children of its own, so a
// leaf of sub-list 1 heads the list of its global level-2 children.
//
// # Expiry
//
// Expiry follows the tree (Algorithm 2). Level 1 is in arrival order —
// attach appends at the tail and edges arrive in timestamp order — and
// every deeper node's edge arrived after its parent's, so the matches a
// window slide expires are a prefix of level 1 (ExpirePrefix) plus the
// cone below it, which DeleteLevel reaches level by level through child
// lists and, in global trees, through the dependency index. Edge-at-a-
// time expiry takes the window's oldest edge, whose level-1 node is
// level 1's head (ExpireEdge), and cascades the same way. No
// time-ordered side structure is kept.
//
// A removed node leaves every structure that a lookup or a later removal
// walks: its level list, its join-index bucket, its dependency bucket and
// its parent's child list, which is unlinked unless the parent is
// removed in the same cascade and consumed once. No removed node is
// reachable from the tree, so none carries a removed flag.
//
// # Slot lifetime
//
// A removed node's slot goes on its level's free list at once, but it is
// reused only after the sweep that removed it has consumed it: only an
// insert takes a slot off a free list, and a sweep (one ExpirePrefix or
// ExpireEdge and the DeleteLevel calls cascading from it) runs to its
// end before the next insert. Until then the slot keeps its parent,
// child-list and sibling links and its payload, so a removed parent's
// child list stays walkable and a dead submatch leaf's slot still keys
// the dependency index.
//
// # Release policy
//
// A level that never stores a node allocates nothing. Its slab grows
// by append, from 8 slots, only when the free list is empty, that is
// when every slot is live: a slab's length is its level's live
// high-water mark, and its capacity is what append reserved for that
// length. Slabs never shrink while the tree lives. When a level's live
// count has dropped to 0, its next insert restarts the slab at slot 1
// and drops the free list, so a level that a slide evicts whole refills
// in slot order without growing.
//
// A Tree is not safe for concurrent use.
package mstree

import "timingsubg/internal/graph"

// Slot names a node within its level: an index into the level's slab.
type Slot uint32

// NoSlot is the zero Slot: no node (the root, as a level-1 parent).
const NoSlot Slot = 0

// node is the part of a slot every tree has: its links.
type node struct {
	// parent is the node one level up, or NoSlot at level 1. A global
	// level-2 node's parent is a leaf of sub-list 1's tree.
	parent Slot
	// nextLvl and prevLvl link the level list; a free slot's nextLvl
	// links the free list.
	nextLvl, prevLvl Slot
	// firstChild heads the list of children; siblings chain through
	// nextSib/prevSib.
	firstChild       Slot
	nextSib, prevSib Slot
	// key chains the node through its join-index bucket.
	key link
	// joinKey is the node's join-index key (levels with a key function
	// only, see Tree.SetLevelKey), computed once at insertion.
	joinKey uint64
}

// edgeSlot is a sub-tree node's payload: its data edge without the
// endpoint labels.
type edgeSlot struct {
	id       graph.EdgeID
	from, to graph.VertexID
	time     graph.Timestamp
	label    graph.Label
}

// subSlot is a global node's payload: the leaf of the sub-list its level
// joins, and the node's links through the dependency bucket of that
// leaf.
type subSlot struct {
	sub Slot
	dep link
}

// link is one intrusive doubly linked list position.
type link struct{ next, prev Slot }

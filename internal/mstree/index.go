package mstree

import "math/bits"

// Which link of a slot chains an index's buckets.
const (
	keyLink = iota // node.key: the join table
	depLink        // subSlot.dep: the dependency index
)

// link returns slot s's link for index links (keyLink or depLink).
func (lv *level) link(links int, s Slot) *link {
	if links == keyLink {
		return &lv.nodes[s].key
	}
	return &lv.subs[s].dep
}

// bucket is one index key's node list, threaded through the nodes' own
// links and appended at the tail, so iteration is insertion order. A
// live bucket is never empty, so head == NoSlot marks no bucket.
type bucket struct{ head, tail Slot }

// push appends slot s to b through the links chain.
func (lv *level) push(links int, b *bucket, s Slot) {
	if b.head == NoSlot {
		*b = bucket{s, s}
		return
	}
	lv.link(links, b.tail).next = s
	lv.link(links, s).prev = b.tail
	b.tail = s
}

// unlink removes slot s from its bucket's chain and reports whether s
// was at either end of it: only then must the caller fix the bucket
// (with fixEnds), so an interior node never touches its index.
func (lv *level) unlink(links int, s Slot) (l link, atEnd bool) {
	p := lv.link(links, s)
	l, *p = *p, link{}
	if l.prev != NoSlot {
		lv.link(links, l.prev).next = l.next
	}
	if l.next != NoSlot {
		lv.link(links, l.next).prev = l.prev
	}
	return l, l.prev == NoSlot || l.next == NoSlot
}

// fixEnds updates b's ends after unlink removed the node whose links
// were l; b.head is NoSlot afterwards iff the bucket emptied.
func (b *bucket) fixEnds(l link) {
	if l.prev == NoSlot {
		b.head = l.next
	}
	if l.next == NoSlot {
		b.tail = l.prev
	}
}

// joinEntry is one slot of a join table: a join key and its bucket.
type joinEntry struct {
	key uint64
	bucket
}

// joinTable maps a level's join keys to buckets of its live nodes. It
// is an open-addressed table over a power-of-two slice with linear
// probing, and deletion shifts the rest of a probe run back over the
// hole, so no tombstone is left and a probe stops at the first empty
// entry. It holds no pointer.
type joinTable struct {
	entries []joinEntry
	// shift maps a key's Fibonacci hash to its home entry: the hash's
	// top log2(len(entries)) bits.
	shift uint8
	// live counts the non-empty buckets, that is the distinct keys.
	live int
}

// minTable is a join table's first length.
const minTable = 8

// home returns key's home entry.
func (t *joinTable) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns key's entry index, or -1 when no live node has key.
func (t *joinTable) find(key uint64) int {
	if t.live == 0 {
		return -1
	}
	mask := len(t.entries) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.head == NoSlot {
			return -1
		}
		if e.key == key {
			return i
		}
	}
}

// lookup returns the first node under key, or NoSlot.
func (t *joinTable) lookup(key uint64) Slot {
	if i := t.find(key); i >= 0 {
		return t.entries[i].head
	}
	return NoSlot
}

// entry returns key's entry, inserting an empty one for a new key. The
// table grows first when the new key would fill more than three
// quarters of it.
func (t *joinTable) entry(key uint64) *joinEntry {
	if i := t.find(key); i >= 0 {
		return &t.entries[i]
	}
	if 4*(t.live+1) > 3*len(t.entries) {
		t.grow()
	}
	t.live++
	return t.place(key)
}

// place returns the first empty entry of key's probe run, keyed.
func (t *joinTable) place(key uint64) *joinEntry {
	mask := len(t.entries) - 1
	i := t.home(key)
	for t.entries[i].head != NoSlot {
		i = (i + 1) & mask
	}
	t.entries[i].key = key
	return &t.entries[i]
}

// grow doubles the table and reinserts its live entries.
func (t *joinTable) grow() {
	old := t.entries
	n := max(minTable, 2*len(old))
	t.entries = make([]joinEntry, n)
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for _, e := range old {
		if e.head != NoSlot {
			*t.place(e.key) = e
		}
	}
}

// deleteAt empties entry i, shifting back every later entry of its
// probe run whose home does not lie strictly after i, so that every
// remaining key stays reachable from its home without a tombstone.
func (t *joinTable) deleteAt(i int) {
	mask := len(t.entries) - 1
	for j := (i + 1) & mask; t.entries[j].head != NoSlot; j = (j + 1) & mask {
		if h := t.home(t.entries[j].key); (j-h)&mask >= (j-i)&mask {
			t.entries[i] = t.entries[j]
			i = j
		}
	}
	t.entries[i] = joinEntry{}
	t.live--
}

// addKey appends slot s to key's bucket.
func (lv *level) addKey(key uint64, s Slot) {
	lv.push(keyLink, &lv.joinIdx.entry(key).bucket, s)
}

// removeKey unlinks slot s, whose join key is key, from its bucket,
// deleting the key when the bucket empties.
func (lv *level) removeKey(key uint64, s Slot) {
	l, atEnd := lv.unlink(keyLink, s)
	if !atEnd {
		return
	}
	t := &lv.joinIdx
	i := t.find(key)
	t.entries[i].fixEnds(l)
	if t.entries[i].head == NoSlot {
		t.deleteAt(i)
	}
}

// depIndex buckets a global level's live nodes by their submatch leaf.
// Leaf slots are dense slab indexes, so the buckets are a slice indexed
// by the leaf's slot.
type depIndex struct {
	buckets []bucket
	// live counts the non-empty buckets.
	live int
}

// addDep appends slot s to leaf sub's bucket.
func (lv *level) addDep(sub, s Slot) {
	d := &lv.depIdx
	if n := int(sub) + 1; n > len(d.buckets) {
		d.buckets = append(d.buckets, make([]bucket, n-len(d.buckets))...)
	}
	b := &d.buckets[sub]
	if b.head == NoSlot {
		d.live++
	}
	lv.push(depLink, b, s)
}

// removeDep unlinks slot s from leaf sub's bucket.
func (lv *level) removeDep(sub, s Slot) {
	l, atEnd := lv.unlink(depLink, s)
	if !atEnd {
		return
	}
	b := &lv.depIdx.buckets[sub]
	b.fixEnds(l)
	if b.head == NoSlot {
		lv.depIdx.live--
	}
}

// takeDep detaches and returns leaf sub's whole bucket.
func (lv *level) takeDep(sub Slot) bucket {
	d := &lv.depIdx
	if int(sub) >= len(d.buckets) || d.buckets[sub].head == NoSlot {
		return bucket{}
	}
	b := d.buckets[sub]
	d.buckets[sub] = bucket{}
	d.live--
	return b
}

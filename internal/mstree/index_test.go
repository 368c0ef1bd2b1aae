package mstree

import (
	"math/rand"
	"slices"
	"testing"
)

// fibInverse is the multiplicative inverse of the join table's Fibonacci
// multiplier modulo 2⁶⁴, so keyWithHash can pick a key by its hash.
var fibInverse = func() uint64 {
	const c = 0x9e3779b97f4a7c15
	x := uint64(c) // Newton's iteration doubles the correct low bits
	for range 6 {
		x *= 2 - c*x
	}
	return x
}()

// keyWithHash returns the key whose Fibonacci hash is h.
func keyWithHash(h uint64) uint64 { return h * fibInverse }

// indexKeys is the key pool of the join-table model. A key's home is its
// hash's top bits, so the pool holds keys of three kinds, whatever the
// table's size:
//   - eight whose hash is all ones but for its low bits: they all home
//     at the last entry, collide, and their probe run wraps around to
//     the front;
//   - eight whose hash is nearly zero: they all home at entry 0, where
//     the wrapped run lands;
//   - sixteen ordinary keys, spread by the hash.
var indexKeys = func() []uint64 {
	var keys []uint64
	for i := range uint64(8) {
		keys = append(keys, keyWithHash(^i))
	}
	for i := range uint64(8) {
		keys = append(keys, keyWithHash(i))
	}
	for i := range uint64(16) {
		keys = append(keys, i*7+3)
	}
	return keys
}()

// indexModel drives one level's join table and checks it against a map
// of each key's slots in insertion order.
type indexModel struct {
	tb    testing.TB
	lv    level
	model map[uint64][]Slot
	op    int
}

func newIndexModel(tb testing.TB) *indexModel {
	return &indexModel{tb: tb, model: map[uint64][]Slot{}}
}

// run decodes (op, arg) byte pairs from data until it runs out, checking
// the table after each.
func (m *indexModel) run(data []byte) {
	for ; len(data) >= 2; data = data[2:] {
		op, arg := data[0], int(data[1])
		m.op++
		switch op % 4 {
		case 0, 1:
			m.add(indexKeys[arg%len(indexKeys)])
		case 2:
			m.remove(arg)
		case 3:
			m.drain(arg)
		}
		m.verify()
	}
}

func (m *indexModel) add(key uint64) {
	s := m.lv.alloc()
	m.lv.count++ // removed nodes are not freed: every slot is fresh
	m.lv.nodes[s].joinKey = key
	m.lv.addKey(key, s)
	m.model[key] = append(m.model[key], s)
}

// liveKeys returns the model's keys in pool order.
func (m *indexModel) liveKeys() []uint64 {
	var keys []uint64
	for _, k := range indexKeys {
		if len(m.model[k]) > 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// remove unlinks one node of a live bucket: its head, its tail or one
// in the middle, as arg selects.
func (m *indexModel) remove(arg int) {
	keys := m.liveKeys()
	if len(keys) == 0 {
		return
	}
	key := keys[arg%len(keys)]
	b := m.model[key]
	var i int
	switch arg / len(keys) % 3 {
	case 0:
		i = 0
	case 1:
		i = len(b) - 1
	default:
		i = len(b) / 2
	}
	m.lv.removeKey(key, b[i])
	m.model[key] = slices.Delete(b, i, i+1)
}

// drain removes every node of one live bucket, tail first when arg is
// odd, so the key leaves the table and its probe run shifts back.
func (m *indexModel) drain(arg int) {
	keys := m.liveKeys()
	if len(keys) == 0 {
		return
	}
	key := keys[arg%len(keys)]
	b := m.model[key]
	for len(b) > 0 {
		i := 0
		if arg%2 == 1 {
			i = len(b) - 1
		}
		m.lv.removeKey(key, b[i])
		b = slices.Delete(b, i, i+1)
	}
	delete(m.model, key)
}

// verify checks the table against the model: the live-key count, each
// key's bucket in insertion order with its tail, no bucket for a key
// the model lacks, the load bound, and the linear-probing invariant
// that no empty entry lies between a key's home and its entry.
func (m *indexModel) verify() {
	t := &m.lv.joinIdx
	live := 0
	for _, k := range indexKeys {
		want := m.model[k]
		if len(want) > 0 {
			live++
		}
		var got []Slot
		for s := t.lookup(k); s != NoSlot; s = m.lv.nodes[s].key.next {
			got = append(got, s)
			if len(got) > len(want) {
				break
			}
		}
		if !slices.Equal(got, want) {
			m.tb.Fatalf("op %d: key %#x: bucket %v, model %v", m.op, k, got, want)
		}
		if i := t.find(k); len(want) > 0 && t.entries[i].tail != want[len(want)-1] {
			m.tb.Fatalf("op %d: key %#x: tail %d, model %d", m.op, k, t.entries[i].tail, want[len(want)-1])
		}
	}
	if t.live != live {
		m.tb.Fatalf("op %d: table counts %d live keys, model %d", m.op, t.live, live)
	}
	if 4*t.live > 3*len(t.entries) {
		m.tb.Fatalf("op %d: %d live keys in %d entries", m.op, t.live, len(t.entries))
	}
	mask := len(t.entries) - 1
	used := 0
	for i, e := range t.entries {
		if e.head == NoSlot {
			if e != (joinEntry{}) {
				m.tb.Fatalf("op %d: empty entry %d is not zeroed: %+v", m.op, i, e)
			}
			continue
		}
		used++
		for j := t.home(e.key); j != i; j = (j + 1) & mask {
			if t.entries[j].head == NoSlot {
				m.tb.Fatalf("op %d: key %#x at entry %d is cut off from its home by empty entry %d", m.op, e.key, i, j)
			}
		}
	}
	if used != live {
		m.tb.Fatalf("op %d: %d entries used, %d live keys", m.op, used, live)
	}
}

// TestJoinIndexModel runs the join-table model on random operation
// sequences: adds, removals at a bucket's head, middle and tail, and
// whole-bucket drains over colliding, wrapping and ordinary keys, with
// the table growing through several sizes.
func TestJoinIndexModel(t *testing.T) {
	if h := (keyWithHash(^uint64(0)) * 0x9e3779b97f4a7c15); h != ^uint64(0) {
		t.Fatalf("keyWithHash does not invert the hash: %#x", h)
	}
	rng := rand.New(rand.NewSource(5))
	for round := range 20 {
		data := make([]byte, 2*600)
		rng.Read(data)
		// Bias the early half of each round towards adds, so the table
		// grows before removals thin it out.
		for i := 0; i < len(data)/2; i += 2 {
			data[i] &^= 2
		}
		m := newIndexModel(t)
		m.run(data)
		if round == 0 && len(m.lv.joinIdx.entries) < 32 {
			t.Fatalf("the table grew to %d entries only: growth is not exercised", len(m.lv.joinIdx.entries))
		}
	}
}

// FuzzJoinIndex runs the same model check on fuzzed operation
// sequences.
func FuzzJoinIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 8, 0, 9, 2, 0, 2, 1, 2, 2, 3, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		newIndexModel(t).run(data)
	})
}

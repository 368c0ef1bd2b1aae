package server

import (
	"sync"
)

// ringEvent is one pre-serialized SSE match event with its per-query
// delivery sequence number.
type ringEvent struct {
	seq  int64
	data []byte
}

// replayRing is a fixed-capacity ring of the newest match events of
// one query, in sequence order. It is the server-side half of
// resumable delivery: a reconnecting subscriber's Last-Event-ID maps
// to per-query cursors, events still inside the ring are replayed, and
// the live subscription (attached first, with the same cursors as
// AfterSeq) covers everything after. The ring is fed synchronously by
// the engine's OnDelivery hook, so after a durable restart it is
// rebuilt by recovery replay — with the same sequence numbers the
// pre-crash run assigned — before the server accepts connections.
type replayRing struct {
	buf  []ringEvent
	head int // index of the oldest event
	n    int // live events
	// born is the completion time (see completedAt) of the first event
	// recorded. It tells two incarnations of a reused query name apart:
	// both number their events from 1, but every event of this one
	// completes at or after born, and every event of an earlier one
	// completed before it was retired, so before born.
	born int64
}

func newReplayRing(capacity int, born int64) *replayRing {
	if capacity < 1 {
		capacity = 1
	}
	return &replayRing{buf: make([]ringEvent, capacity), born: born}
}

// add appends one event, evicting the oldest when full. Events arrive
// in sequence order (per-query publication is serialized).
func (r *replayRing) add(ev ringEvent) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = ev
		r.n++
		return
	}
	r.buf[r.head] = ev
	r.head = (r.head + 1) % len(r.buf)
}

// since copies out the retained events with seq > after, oldest first.
func (r *replayRing) since(after int64) []ringEvent {
	var out []ringEvent
	for i := 0; i < r.n; i++ {
		ev := r.buf[(r.head+i)%len(r.buf)]
		if ev.seq > after {
			out = append(out, ev)
		}
	}
	return out
}

// get returns the retained event with sequence number seq. Retained
// sequence numbers are dense (every delivery is recorded), so the slot
// is found by counting back from the newest.
func (r *replayRing) get(seq int64) (ringEvent, bool) {
	if r.n == 0 {
		return ringEvent{}, false
	}
	last := (r.head + r.n - 1) % len(r.buf)
	back := r.buf[last].seq - seq
	if back < 0 || back >= int64(r.n) {
		return ringEvent{}, false
	}
	ev := r.buf[(last-int(back)+len(r.buf))%len(r.buf)]
	return ev, ev.seq == seq
}

// replayStore is the per-query ring set. The engine's delivery hook
// writes it from the ingest path (concurrently, on sharded fleets);
// SSE handlers read it once per connection to replay, then once per
// live event for the event's bytes.
type replayStore struct {
	mu       sync.Mutex
	capacity int
	rings    map[string]*replayRing
}

func newReplayStore(capacity int) *replayStore {
	return &replayStore{capacity: capacity, rings: make(map[string]*replayRing)}
}

// add records query's event ev, which completed at at.
func (s *replayStore) add(query string, at int64, ev ringEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rings[query]
	if r == nil {
		r = newReplayRing(s.capacity, at)
		s.rings[query] = r
	}
	r.add(ev)
}

// since returns the retained events of query with seq > after.
func (s *replayStore) since(query string, after int64) []ringEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rings[query]
	if r == nil {
		return nil
	}
	return r.since(after)
}

// lookup returns the serialized event query published as seq, if the
// ring still holds it and the event, completed at at, belongs to the
// ring's incarnation of the name. The bytes are never mutated after
// record, so the caller may use them after the lock is released.
func (s *replayStore) lookup(query string, seq, at int64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rings[query]
	if r == nil || at < r.born {
		return nil, false
	}
	ev, ok := r.get(seq)
	return ev.data, ok
}

// queries returns the names with retained events.
func (s *replayStore) queries() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.rings))
	for q := range s.rings {
		out = append(out, q)
	}
	return out
}

// drop discards query's retained events (query retirement: its
// sequence numbers reset, so stale events must not resurface under a
// reused name).
func (s *replayStore) drop(query string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.rings, query)
}

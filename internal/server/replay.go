package server

import (
	"sync"

	"timingsubg/client"
)

// logEntry is one retained match event: the index of the query
// incarnation that published it (nil once that incarnation is retired),
// its per-query delivery sequence number and its pre-serialized SSE
// data.
type logEntry struct {
	q    *queryLog
	seq  int64
	data []byte
}

// queryLog indexes one query incarnation's retained events: the log
// slots of seqs first, first+1, … in order. Retained seqs are dense,
// because every delivery is recorded and the log evicts in delivery
// order, which is each query's seq order.
type queryLog struct {
	name string
	// born is the completion time (see completedAt) of the first event
	// recorded. It tells two incarnations of a reused query name apart:
	// both number their events from 1, but every event of this one
	// completes at or after born, and every event of an earlier one
	// completed before it was retired, so before born.
	born  int64
	first int64 // seq of the oldest retained event

	// slots is a ring: n slots from head, oldest first.
	slots []int32
	head  int
	n     int
}

func (q *queryLog) push(slot int32) {
	if q.n == len(q.slots) {
		grown := make([]int32, max(4, 2*q.n))
		for i := range q.n {
			grown[i] = q.at(i)
		}
		q.slots, q.head = grown, 0
	}
	q.slots[(q.head+q.n)%len(q.slots)] = slot
	q.n++
}

func (q *queryLog) pop() {
	q.head = (q.head + 1) % len(q.slots)
	q.n--
	q.first++
}

// at returns the log slot of the i-th oldest retained event.
func (q *queryLog) at(i int) int32 { return q.slots[(q.head+i)%len(q.slots)] }

// replayStore is the server's resume log: the last capacity match
// events of every query, in delivery order. It is the server-side half
// of resumable delivery: a reconnecting subscriber's Last-Event-ID maps
// to per-query cursors, events still in the log are replayed, and the
// live subscription (attached first, with the same cursors as AfterSeq)
// covers everything after. It is fed synchronously by the engine's
// OnDelivery hook from the ingest path (concurrently, on sharded
// fleets), so after a durable restart it is rebuilt by recovery replay —
// with the same sequence numbers the pre-crash run assigned — before
// the server accepts connections. SSE handlers read it once per
// connection to replay, then once per live event for the event's bytes.
//
// The slot array grows by append up to capacity and is circular from
// then on: a new event overwrites the globally oldest one. Memory is
// therefore bounded by capacity events whatever the number of queries.
type replayStore struct {
	mu       sync.Mutex
	capacity int
	log      []logEntry
	next     int // once the log is full: the oldest slot, overwritten next
	queries  map[string]*queryLog

	events int64 // retained events of current incarnations
	bytes  int64 // their serialized size
	misses int64 // lookups that missed; each is marshalled again
}

func newReplayStore(capacity int) *replayStore {
	return &replayStore{capacity: max(capacity, 1), queries: make(map[string]*queryLog)}
}

// add records query's event seq, which completed at at. Events of one
// query arrive in sequence order (per-query publication is serialized).
func (s *replayStore) add(query string, at, seq int64, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queries[query]
	if q == nil {
		q = &queryLog{name: query, born: at}
		s.queries[query] = q
	}
	slot := len(s.log)
	if slot < s.capacity {
		s.log = append(s.log, logEntry{})
	} else {
		slot = s.next
		s.next = (s.next + 1) % len(s.log)
		if old := s.log[slot]; old.q != nil {
			// The globally oldest event is also the oldest of its query.
			old.q.pop()
			s.events--
			s.bytes -= int64(len(old.data))
		}
	}
	s.log[slot] = logEntry{q: q, seq: seq, data: data}
	if q.n == 0 {
		q.first = seq
	}
	q.push(int32(slot))
	s.events++
	s.bytes += int64(len(data))
}

// lookup returns the serialized event query published as seq, if the
// log still holds it and the event, completed at at, belongs to the
// current incarnation of the name. The bytes are never mutated after
// record, so the caller may use them after the lock is released. A
// miss is counted: the caller serializes the event again.
func (s *replayStore) lookup(query string, seq, at int64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.queries[query]; q != nil && at >= q.born {
		if k := seq - q.first; k >= 0 && k < int64(q.n) {
			return s.log[q.at(int(k))].data, true
		}
	}
	s.misses++
	return nil, false
}

// resume copies out, oldest first in delivery order, the retained
// events of current query incarnations that admit accepts and whose seq
// is above the query's cursor in after.
func (s *replayStore) resume(after map[string]int64, admit func(query string) bool) []logEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []logEntry
	for i := range s.log {
		e := s.log[(s.next+i)%len(s.log)]
		if e.q != nil && e.seq > after[e.q.name] && admit(e.q.name) {
			out = append(out, e)
		}
	}
	return out
}

// drop retires query's current incarnation: its sequence numbers
// reset, so its events must not resurface under a reused name. Its
// slots stay in the log, empty, until the log overwrites them.
func (s *replayStore) drop(query string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queries[query]
	if q == nil {
		return
	}
	for i := range q.n {
		e := &s.log[q.at(i)]
		s.events--
		s.bytes -= int64(len(e.data))
		*e = logEntry{}
	}
	delete(s.queries, query)
}

// stats returns the log's share of the server's memory and its misses.
func (s *replayStore) stats() client.ReplayStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return client.ReplayStats{ReplayEvents: s.events, ReplayBytes: s.bytes, ReplayMisses: s.misses}
}

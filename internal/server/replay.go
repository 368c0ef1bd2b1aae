package server

import (
	"slices"
	"sync"

	"timingsubg/client"
)

// chunkSize is the size of the resume log's arena chunks. A record
// larger than a chunk gets a chunk of its own size.
const chunkSize = 64 << 10

// logEntry is one retained match event: the index of the query
// incarnation that published it (nil once that incarnation is retired),
// its per-query delivery sequence number and the extent of its record
// (see appendRecord) in the arena. A retired entry keeps its extent, so
// evicting it still moves the arena's front.
type logEntry struct {
	q      *queryLog
	seq    int64
	chunk  int64 // the arena chunk holding the record, by absolute index
	off, n int32 // the record's offset in the chunk and its length
}

// queryLog indexes one query incarnation's retained events: the log
// slots of seqs first, first+1, … in order, and the query's event head
// as it was when the incarnation recorded its first event. Retained
// seqs are dense, because every delivery is recorded and the log
// evicts in delivery order, which is each query's seq order.
type queryLog struct {
	name  string
	head  []byte // eventHead of the incarnation's wire name and owner
	first int64  // seq of the oldest retained event

	// slots is a ring: n slots from ring, oldest first.
	slots []int32
	ring  int
	n     int
}

func (q *queryLog) push(slot int32) {
	if q.n == len(q.slots) {
		grown := make([]int32, max(4, 2*q.n))
		for i := range q.n {
			grown[i] = q.at(i)
		}
		q.slots, q.ring = grown, 0
	}
	q.slots[(q.ring+q.n)%len(q.slots)] = slot
	q.n++
}

func (q *queryLog) pop() {
	q.ring = (q.ring + 1) % len(q.slots)
	q.n--
	q.first++
}

// at returns the log slot of the i-th oldest retained event.
func (q *queryLog) at(i int) int32 { return q.slots[(q.ring+i)%len(q.slots)] }

// arena holds the log's records back to back in fixed-size chunks. A
// record never spans two chunks: one that does not fit the newest
// chunk's rest opens the next. The log evicts in delivery order, which
// is also arena order, so the live records are always a suffix of the
// chunk list, and a chunk is recycled once the oldest log slot has
// left it. One recycled chunk is kept spare for the next chunk opened;
// in steady state that is the only chunk ever needed, so a full log's
// add allocates nothing.
type arena struct {
	size   int      // chunk size: chunkSize, smaller in tests
	chunks [][]byte // oldest first; chunks[i] has absolute index base+i
	base   int64
	spare  []byte // a recycled chunk, or nil
}

// put copies rec to the end of the arena and returns its place.
func (a *arena) put(rec []byte) (chunk int64, off int32) {
	k := len(a.chunks) - 1
	if k < 0 || len(a.chunks[k])+len(rec) > cap(a.chunks[k]) {
		c := a.spare
		if c == nil || len(rec) > cap(c) {
			c = make([]byte, 0, max(a.size, len(rec)))
		} else {
			a.spare = nil
		}
		a.chunks = append(a.chunks, c[:0])
		k++
	}
	off = int32(len(a.chunks[k]))
	a.chunks[k] = append(a.chunks[k], rec...)
	return a.base + int64(k), off
}

// release recycles every chunk before chunk, the oldest one still
// holding a log slot.
func (a *arena) release(chunk int64) {
	k := int(chunk - a.base)
	if k <= 0 {
		return
	}
	if c := a.chunks[k-1]; cap(c) == a.size {
		a.spare = c
	}
	clear(a.chunks[:k])
	a.chunks = slices.Delete(a.chunks, 0, k)
	a.base = chunk
}

// record returns e's record bytes. They stay valid only while the log
// holds e, so only until the lock is released.
func (a *arena) record(e logEntry) []byte {
	return a.chunks[e.chunk-a.base][e.off : e.off+e.n]
}

// resumeEvent is one event a resume copied out of the log.
type resumeEvent struct {
	query string
	head  []byte // the incarnation's eventHead
	seq   int64
	rec   []byte
}

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
// connection, to resume; live events never touch it.
//
// The slot array grows by append up to capacity and is circular from
// then on: a new event overwrites the globally oldest one. Memory is
// therefore bounded by capacity events whatever the number of queries.
// The events are kept as compact records in the arena, not as JSON.
// The arena's chunks hold at most the records of the log's slots
// (those of retired incarnations included, until they are evicted) plus
// two chunks — the dead front of the oldest, the empty rest of the
// newest — plus the unused tails of the chunks in between, each shorter
// than the record that did not fit; and one spare chunk.
type replayStore struct {
	mu       sync.Mutex
	capacity int
	log      []logEntry
	next     int // once the log is full: the oldest slot, overwritten next
	queries  map[string]*queryLog
	arena    arena

	events int64 // retained events of current incarnations
	bytes  int64 // their record bytes
}

func newReplayStore(capacity int) *replayStore {
	return &replayStore{
		capacity: max(capacity, 1),
		queries:  make(map[string]*queryLog),
		arena:    arena{size: chunkSize},
	}
}

// add records query's event seq, whose record is rec. head is the
// query's eventHead; the first add of an incarnation keeps it. Events
// of one query arrive in sequence order (per-query publication is
// serialized). rec is copied, so the caller may reuse it.
func (s *replayStore) add(query string, head []byte, seq int64, rec []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queries[query]
	if q == nil {
		q = &queryLog{name: query, head: head}
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
			s.bytes -= int64(old.n)
		}
	}
	chunk, off := s.arena.put(rec)
	s.log[slot] = logEntry{q: q, seq: seq, chunk: chunk, off: off, n: int32(len(rec))}
	s.arena.release(s.log[s.next].chunk)
	if q.n == 0 {
		q.first = seq
	}
	q.push(int32(slot))
	s.events++
	s.bytes += int64(len(rec))
}

// resume copies out, oldest first in delivery order, the retained
// events of current query incarnations that admit accepts and whose seq
// is above the query's cursor in after.
func (s *replayStore) resume(after map[string]int64, admit func(query string) bool) []resumeEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []resumeEvent
	size := 0
	for i := range s.log {
		e := s.log[(s.next+i)%len(s.log)]
		if e.q != nil && e.seq > after[e.q.name] && admit(e.q.name) {
			out = append(out, resumeEvent{query: e.q.name, head: e.q.head, seq: e.seq, rec: s.arena.record(e)})
			size += len(out[len(out)-1].rec)
		}
	}
	// The records live in chunks a later add may recycle: copy them.
	buf := make([]byte, 0, size)
	for i := range out {
		start := len(buf)
		buf = append(buf, out[i].rec...)
		out[i].rec = buf[start:]
	}
	return out
}

// drop retires query's current incarnation: its sequence numbers
// reset, so its events must not resurface under a reused name. Its
// slots stay in the log, unowned, until the log overwrites them.
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
		s.bytes -= int64(e.n)
		e.q = nil
	}
	delete(s.queries, query)
}

// stats returns the log's share of the server's memory.
func (s *replayStore) stats() client.ReplayStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return client.ReplayStats{ReplayEvents: s.events, ReplayBytes: s.bytes}
}

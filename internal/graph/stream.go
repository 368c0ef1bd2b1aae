package graph

import (
	"errors"
	"fmt"
)

// ErrOutOfOrder is returned when an edge is pushed with a timestamp not
// strictly greater than the previous edge's timestamp. The paper's model
// (Definition 1) requires strictly increasing timestamps.
var ErrOutOfOrder = errors.New("graph: edge timestamps must be strictly increasing")

// Stream is an ordered sequence of edges together with a sliding-window
// duration. Advancing the stream yields the edges that newly arrive and
// those that expire, which is exactly the interface continuous engines
// consume.
//
// Stream keeps the in-window edges in a FIFO ring so that expiry is O(1)
// amortized. It does not maintain adjacency; Snapshot builds adjacency on
// demand for baselines that need it.
type Stream struct {
	window Timestamp // |W|
	edges  []Edge    // ring buffer of in-window edges
	head   int       // index of oldest in-window edge
	count  int       // number of in-window edges
	lastT  Timestamp // timestamp of the most recent edge
	nextID EdgeID
	seen   int64  // total edges ever pushed
	exp    []Edge // the last Push's expired edges, reused across pushes
}

// NewStream returns a stream with sliding-window duration |W| = window.
// The window must be positive.
func NewStream(window Timestamp) *Stream {
	if window <= 0 {
		panic(fmt.Sprintf("graph: window must be positive, got %d", window))
	}
	return &Stream{window: window, lastT: -1 << 62}
}

// RestoreStream rebuilds a stream from checkpointed state: the window
// duration, the in-window edges (oldest first, keeping their original
// IDs and timestamps), and the next edge ID to assign. Subsequent
// pushes continue exactly where the checkpointed stream left off, so
// replayed edges receive the same IDs they had before the crash.
func RestoreStream(window Timestamp, inWindow []Edge, nextID EdgeID) *Stream {
	s := NewStream(window)
	for _, e := range inWindow {
		if e.Time <= s.lastT {
			panic(fmt.Sprintf("graph: restore: edges out of order at %s", e))
		}
		s.lastT = e.Time
		s.push(e)
	}
	s.nextID = nextID
	s.seen = int64(nextID)
	return s
}

// Window returns the window duration |W|.
func (s *Stream) Window() Timestamp { return s.window }

// Len returns the number of edges currently inside the window.
func (s *Stream) Len() int { return s.count }

// Seen returns the total number of edges ever pushed.
func (s *Stream) Seen() int64 { return s.seen }

// LastTime returns the timestamp of the most recently pushed edge, or a
// very small value if no edge has been pushed.
func (s *Stream) LastTime() Timestamp { return s.lastT }

// Push appends an edge with the given attributes at timestamp t, assigns
// it an ID, and returns the stored edge together with the edges that
// expire as the window advances to (t−|W|, t]. Expired edges are returned
// oldest first, matching the chronological transaction order required for
// streaming consistency (Definition 11). The expired slice is the
// stream's own buffer, valid until the next Push.
func (s *Stream) Push(e Edge) (Edge, []Edge, error) {
	if e.Time <= s.lastT {
		return Edge{}, nil, fmt.Errorf("%w: got %d after %d", ErrOutOfOrder, e.Time, s.lastT)
	}
	e.ID = s.nextID
	s.nextID++
	s.seen++
	s.lastT = e.Time
	expired := s.expireBefore(e.Time - s.window + 1)
	s.push(e)
	return e, expired, nil
}

// expireBefore removes and returns all edges with Time < cut, oldest
// first, in the reused s.exp buffer.
func (s *Stream) expireBefore(cut Timestamp) []Edge {
	s.exp = s.exp[:0]
	for s.count > 0 {
		oldest := s.edges[s.head]
		if oldest.Time >= cut {
			break
		}
		s.exp = append(s.exp, oldest)
		s.edges[s.head] = Edge{}
		s.head = (s.head + 1) % len(s.edges)
		s.count--
	}
	return s.exp
}

func (s *Stream) push(e Edge) {
	if s.count == len(s.edges) {
		grown := make([]Edge, maxInt(4, 2*len(s.edges)))
		for i := 0; i < s.count; i++ {
			grown[i] = s.edges[(s.head+i)%len(s.edges)]
		}
		s.edges = grown
		s.head = 0
	}
	s.edges[(s.head+s.count)%len(s.edges)] = e
	s.count++
}

// InWindow returns a copy of the edges currently inside the window,
// oldest first.
func (s *Stream) InWindow() []Edge {
	out := make([]Edge, s.count)
	for i := 0; i < s.count; i++ {
		out[i] = s.edges[(s.head+i)%len(s.edges)]
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

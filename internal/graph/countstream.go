package graph

import "fmt"

// Windower is the window-maintenance interface the matching engines
// consume: push an edge, learn what arrived and what expired. Stream
// (time-based window, the paper's model) and CountStream (count-based
// window, a common alternative in stream systems) both implement it.
type Windower interface {
	// Push appends an edge, assigns its ID, and returns the stored edge
	// with the edges that expire as the window advances. The expired
	// slice belongs to the windower and is valid until the next Push:
	// consume it (or copy it) before pushing again.
	Push(e Edge) (Edge, []Edge, error)
	// Len returns the number of edges currently inside the window.
	Len() int
	// Seen returns the total number of edges ever pushed.
	Seen() int64
	// InWindow returns a copy of the in-window edges, oldest first.
	InWindow() []Edge
	// LastTime returns the most recent edge timestamp.
	LastTime() Timestamp
}

var (
	_ Windower = (*Stream)(nil)
	_ Windower = (*CountStream)(nil)
)

// CountStream is a streaming graph under a count-based sliding window:
// the window always holds the most recent n edges (or fewer, before n
// edges have arrived). Timestamps must still be strictly increasing —
// the timing-order semantics of matches are unchanged; only the expiry
// rule differs from the paper's time-based window.
//
// Count windows bound the engine's state by construction, which makes
// them the right choice when arrival rate is bursty and a hard memory
// ceiling matters more than a wall-clock horizon.
type CountStream struct {
	n      int
	edges  []Edge // ring buffer of at most n in-window edges
	head   int
	count  int
	lastT  Timestamp
	nextID EdgeID
	seen   int64
	exp    [1]Edge // backs the expired slice Push returns
}

// NewCountStream returns a stream whose window holds the latest n
// edges. n must be positive.
func NewCountStream(n int) *CountStream {
	if n <= 0 {
		panic(fmt.Sprintf("graph: count window must be positive, got %d", n))
	}
	return &CountStream{n: n, edges: make([]Edge, n), lastT: -1 << 62}
}

// N returns the window size in edges.
func (s *CountStream) N() int { return s.n }

// Len returns the number of edges currently inside the window.
func (s *CountStream) Len() int { return s.count }

// Seen returns the total number of edges ever pushed.
func (s *CountStream) Seen() int64 { return s.seen }

// LastTime returns the timestamp of the most recently pushed edge, or a
// very small value if no edge has been pushed.
func (s *CountStream) LastTime() Timestamp { return s.lastT }

// Push appends an edge, assigns it an ID, and returns it with the edge
// (at most one) that falls out of the count window, valid until the
// next Push.
func (s *CountStream) Push(e Edge) (Edge, []Edge, error) {
	if e.Time <= s.lastT {
		return Edge{}, nil, fmt.Errorf("%w: got %d after %d", ErrOutOfOrder, e.Time, s.lastT)
	}
	e.ID = s.nextID
	s.nextID++
	s.seen++
	s.lastT = e.Time
	var expired []Edge
	if s.count == s.n {
		s.exp[0] = s.edges[s.head]
		expired = s.exp[:]
		s.edges[s.head] = Edge{}
		s.head = (s.head + 1) % s.n
		s.count--
	}
	s.edges[(s.head+s.count)%s.n] = e
	s.count++
	return e, expired, nil
}

// InWindow returns a copy of the edges currently inside the window,
// oldest first.
func (s *CountStream) InWindow() []Edge {
	out := make([]Edge, s.count)
	for i := 0; i < s.count; i++ {
		out[i] = s.edges[(s.head+i)%s.n]
	}
	return out
}

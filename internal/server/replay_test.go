package server

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"timingsubg"
)

// logOp is one step of a TestReplayLog script: add query's event seq
// (completed at at), or retire query when drop is set.
type logOp struct {
	query   string
	seq, at int64
	drop    bool
}

func logAdd(query string, seq, at int64) logOp { return logOp{query: query, seq: seq, at: at} }
func logDrop(query string) logOp               { return logOp{query: query, drop: true} }

// logLabels is the label table of the log tests' events.
var logLabels = func() *labelJSON {
	labels := timingsubg.NewLabels()
	labels.Intern("ping")
	labels.Intern("pong")
	return newLabelJSON(labels)
}()

// eventMatch is the match the log tests publish as a query's event seq,
// completed at at: one to five edges, the last at time at, with IDs,
// vertices and labels that vary with both, so records differ in length.
func eventMatch(seq, at int64) *timingsubg.Match {
	m := &timingsubg.Match{Edges: make([]timingsubg.Edge, 1+seq%5)}
	for i := range m.Edges {
		k := int64(len(m.Edges) - 1 - i)
		m.Edges[i] = timingsubg.Edge{
			ID:        timingsubg.EdgeID(at*1000 - k*k*97),
			From:      timingsubg.VertexID(seq << (8 * k)),
			To:        timingsubg.VertexID(-at - k),
			EdgeLabel: timingsubg.Label((seq + k) % 3),
			Time:      timingsubg.Timestamp(at - k*k),
		}
	}
	return m
}

// addEvent adds query's event seq, completed at at, to s as record
// would.
func addEvent(s *replayStore, query string, seq, at int64) {
	s.add(query, eventHead(query, ""), seq, appendRecord(nil, eventMatch(seq, at)))
}

// eventJSON is the wire form of query's event seq, completed at at.
func eventJSON(query string, seq, at int64) string {
	return string(logLabels.appendMatchEvent(nil, eventHead(query, ""), seq, eventMatch(seq, at)))
}

// resumedJSON decodes every event of a resume to its wire form.
func resumedJSON(evs []resumeEvent) []string {
	var out []string
	for _, ev := range evs {
		out = append(out, string(logLabels.appendRecordEvent(nil, ev.head, ev.seq, ev.rec)))
	}
	return out
}

// checkArena checks the arena's bound: its chunks hold at most the
// records of the log's slots (retired ones included), two chunks and
// the unused tails of the chunks before the newest; the spare is one
// chunk of the arena's size.
func checkArena(tb testing.TB, s *replayStore) {
	tb.Helper()
	a := &s.arena
	var held, tails, slots int
	for i, c := range a.chunks {
		held += cap(c)
		if i < len(a.chunks)-1 {
			tails += cap(c) - len(c)
		}
	}
	for _, e := range s.log {
		slots += int(e.n)
	}
	if held > slots+tails+2*a.size {
		tb.Fatalf("arena holds %d B in %d chunks of %d B: more than %d B of slots + %d B of tails + 2 chunks",
			held, len(a.chunks), a.size, slots, tails)
	}
	if a.spare != nil && cap(a.spare) != a.size {
		tb.Fatalf("spare chunk of %d B, want %d", cap(a.spare), a.size)
	}
}

// TestReplayLog checks the server-wide log on scripted interleavings:
// eviction of the globally oldest event, retirement and reuse of a
// name, and the delivery-order resume scan, each resumed record
// decoding to the event that was added. Every script runs with a
// chunk of 64 bytes, a few records each, so chunks turn over, and with
// the real chunk size.
func TestReplayLog(t *testing.T) {
	all := func(string) bool { return true }
	for _, tc := range []struct {
		name     string
		capacity int
		ops      []logOp
		after    map[string]int64
		admit    func(string) bool
		resume   []string // the scan's events as query/seq@at, oldest first
	}{{
		name:     "eviction-order-across-queries",
		capacity: 4,
		ops:      []logOp{logAdd("a", 1, 1), logAdd("b", 1, 2), logAdd("a", 2, 3), logAdd("c", 1, 4), logAdd("b", 2, 5), logAdd("a", 3, 6)},
		admit:    all,
		resume:   []string{"a/2@3", "c/1@4", "b/2@5", "a/3@6"},
	}, {
		// One query's burst evicts every event of another; a later
		// event of the evicted query is retained from its new first seq.
		name:     "cross-query-eviction",
		capacity: 3,
		ops:      []logOp{logAdd("a", 1, 1), logAdd("b", 1, 2), logAdd("b", 2, 3), logAdd("b", 3, 4), logAdd("a", 2, 5)},
		after:    map[string]int64{"a": 1},
		admit:    all,
		resume:   []string{"b/2@3", "b/3@4", "a/2@5"},
	}, {
		// Wrap-around within one query, then retirement and reuse: the
		// new incarnation numbers from 1 again, and none of the old
		// one's events resurface under it.
		name:     "wrap-around-and-reuse",
		capacity: 4,
		ops: []logOp{
			logAdd("q", 1, 11), logAdd("q", 2, 12), logAdd("q", 3, 13), logAdd("q", 4, 14),
			logAdd("q", 5, 15), logAdd("q", 6, 16), logAdd("q", 7, 17),
			logDrop("q"), logAdd("q", 1, 20), logAdd("q", 2, 21),
		},
		admit:  all,
		resume: []string{"q/1@20", "q/2@21"},
	}, {
		// A retired incarnation's events stay in the log as unowned
		// slots: the scan does not serve them, and evicting them later
		// leaves the new incarnation's index intact.
		name:     "drop-and-reregister",
		capacity: 5,
		ops: []logOp{
			logAdd("q", 1, 10), logAdd("r", 1, 11), logAdd("q", 2, 12), logDrop("q"),
			logAdd("q", 1, 20), logAdd("r", 2, 21), logAdd("q", 2, 22), logAdd("q", 3, 23),
		},
		admit:  all,
		resume: []string{"q/1@20", "r/2@21", "q/2@22", "q/3@23"},
	}, {
		// Resume interleaves queries in delivery order and applies each
		// query's own cursor and the connection's filter.
		name:     "resume-in-delivery-order",
		capacity: 16,
		ops: []logOp{
			logAdd("t:a", 1, 1), logAdd("t:b", 1, 2), logAdd("u:c", 1, 3), logAdd("t:a", 2, 4),
			logAdd("t:b", 2, 5), logAdd("t:a", 3, 6), logAdd("u:c", 2, 7),
		},
		after:  map[string]int64{"t:a": 1, "u:c": 1},
		admit:  func(q string) bool { return strings.HasPrefix(q, "t:") },
		resume: []string{"t:b/1@2", "t:a/2@4", "t:b/2@5", "t:a/3@6"},
	}, {
		// Extreme IDs, vertices and times: the records' deltas wrap.
		name:     "int64-extremes",
		capacity: 3,
		ops:      []logOp{logAdd("x", 1, 1<<62), logAdd("x", 2, -1<<62), logAdd("x", 3, 1<<53), logAdd("x", 4, -7)},
		admit:    all,
		resume:   []string{"x/2@-4611686018427387904", "x/3@9007199254740992", "x/4@-7"},
	}, {
		name:     "capacity-1",
		capacity: 1,
		ops:      []logOp{logAdd("a", 1, 1), logAdd("b", 1, 2), logAdd("a", 2, 3)},
		admit:    all,
		resume:   []string{"a/2@3"},
	}, {
		name:     "capacity-0-holds-one",
		capacity: 0,
		ops:      []logOp{logAdd("a", 1, 1), logAdd("a", 2, 2)},
		admit:    all,
		resume:   []string{"a/2@2"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, chunk := range []int{64, chunkSize} {
				t.Run(fmt.Sprintf("chunk-%d", chunk), func(t *testing.T) {
					s := newReplayStore(tc.capacity)
					s.arena.size = chunk
					for _, op := range tc.ops {
						if op.drop {
							s.drop(op.query)
						} else {
							addEvent(s, op.query, op.seq, op.at)
						}
						checkArena(t, s)
					}
					var want []string
					for _, ev := range tc.resume {
						i := strings.LastIndexByte(ev, '/')
						var seq, at int64
						if _, err := fmt.Sscanf(ev[i+1:], "%d@%d", &seq, &at); err != nil {
							t.Fatalf("bad case event %q: %v", ev, err)
						}
						want = append(want, eventJSON(ev[:i], seq, at))
					}
					if got := resumedJSON(s.resume(tc.after, tc.admit)); !slices.Equal(got, want) {
						t.Errorf("resume =\n %s\nwant\n %s", strings.Join(got, "\n "), strings.Join(want, "\n "))
					}
					// The counters cover exactly the events an unfiltered resume
					// from zero cursors returns.
					cur := s.resume(nil, all)
					var bytes int64
					for _, e := range cur {
						bytes += int64(len(e.rec))
					}
					if st := s.stats(); st.ReplayEvents != int64(len(cur)) || st.ReplayBytes != bytes {
						t.Errorf("stats = %+v, want %d events, %d bytes", st, len(cur), bytes)
					}
				})
			}
		})
	}
}

// TestReplayLogKeepsFirstHead checks that a resumed event carries the
// head its incarnation recorded first, whatever head later adds pass,
// and that a new incarnation records its own.
func TestReplayLogKeepsFirstHead(t *testing.T) {
	s := newReplayStore(8)
	rec := appendRecord(nil, eventMatch(1, 1))
	s.add("acme:pp", eventHead("pp", "acme"), 1, rec)
	s.add("acme:pp", eventHead("acme:pp", ""), 2, rec)
	s.drop("acme:pp")
	s.add("acme:pp", eventHead("acme:pp", ""), 1, rec)
	s.add("acme:pp", eventHead("pp", "acme"), 2, rec)
	s.drop("acme:pp")
	s.add("acme:pp", eventHead("pp", "acme"), 1, rec)
	s.add("acme:pp", eventHead("pp", "bmart"), 2, rec)
	var got []string
	for _, ev := range s.resume(map[string]int64{}, func(string) bool { return true }) {
		got = append(got, string(ev.head))
	}
	want := []string{`{"query":"pp","tenant":"acme"`, `{"query":"pp","tenant":"acme"`}
	if !slices.Equal(got, want) {
		t.Fatalf("resumed heads = %q, want %q", got, want)
	}
}

// TestReplayArena runs the arena at its real chunk size through
// several wraps of a full log, a DELETE and the reuse of the name, on
// records of a seeded ping/pong-like stream: the chunks stay within
// their bound throughout, and once the log is full an add allocates
// nothing.
func TestReplayArena(t *testing.T) {
	const capacity = 1 << 13
	s := newReplayStore(capacity)
	rng := rand.New(rand.NewPCG(1, 2))
	names := []string{"t:a", "t:b", "u:c"}
	heads := make([][]byte, len(names))
	for i, name := range names {
		heads[i] = eventHead(name, "")
	}
	seqs := make([]int64, len(names))
	var now timingsubg.Timestamp
	m := &timingsubg.Match{Edges: make([]timingsubg.Edge, 2)}
	var rec []byte
	add := func() {
		q := rng.IntN(len(names))
		seqs[q]++
		now += timingsubg.Timestamp(1 + rng.IntN(50))
		v := timingsubg.VertexID(rng.IntN(1 << 20))
		m.Edges[0] = timingsubg.Edge{ID: timingsubg.EdgeID(now) - 9, From: v, To: v + 1, EdgeLabel: 1, Time: now - timingsubg.Timestamp(rng.IntN(1000))}
		m.Edges[1] = timingsubg.Edge{ID: timingsubg.EdgeID(now), From: v + 1, To: v, EdgeLabel: 2, Time: now}
		rec = appendRecord(rec[:0], m)
		s.add(names[q], heads[q], seqs[q], rec)
	}
	for i := range 5 * capacity {
		add()
		if i == 2*capacity {
			s.drop("t:b")
			seqs[1] = 0
		}
		if i%512 == 0 || i == 2*capacity {
			checkArena(t, s)
		}
	}
	checkArena(t, s)
	if st := s.stats(); st.ReplayEvents != capacity {
		t.Fatalf("full log holds %d events, want %d", st.ReplayEvents, capacity)
	}
	// A resume's records are copies: the adds that recycle the chunks
	// they came from leave them as they were.
	all := func(string) bool { return true }
	resumed := s.resume(nil, all)
	before := resumedJSON(resumed)
	for range capacity {
		add()
	}
	if after := resumedJSON(resumed); !slices.Equal(after, before) {
		t.Fatal("a resume's records changed when the log recycled their chunks")
	}
	// One measured run of many adds, so the total is counted: an average
	// over single adds would round a chunk opened every few thousand
	// adds down to 0.
	if allocs := testing.AllocsPerRun(1, func() {
		for range 2 * capacity {
			add()
		}
	}); allocs != 0 {
		t.Fatalf("%d adds to a full log allocate %.0f times, want 0", 2*capacity, allocs)
	}
	checkArena(t, s)
}

// FuzzReplayLog checks the log against a naive model: a slice of every
// event ever added, in delivery order, of which the log retains the
// last capacity whose incarnation is still current. The input's first
// byte sets the capacity and the arena's chunk size; then each two-byte
// step adds, scans (unfiltered, or with a cursor and a prefix) or drops
// over three query names. Every resumed
// record must decode to the event that was added.
func FuzzReplayLog(f *testing.F) {
	names := []string{"t:a", "t:b", "u:c"}
	type event struct {
		query   string
		inc     int
		seq, at int64
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := 1 + int(ops[0]%8)
		s := newReplayStore(capacity)
		s.arena.size = 16 << (ops[0] / 8 % 4)
		ops = ops[1:]
		var history []event
		inc := map[string]int{}
		seq := map[string]int64{}
		var clock int64
		retained := func(i int) bool {
			ev := history[i]
			return i >= len(history)-capacity && ev.inc == inc[ev.query]
		}
		for ; len(ops) >= 2; ops = ops[2:] {
			name := names[int(ops[1])%len(names)]
			switch ops[0] % 4 {
			case 0:
				// Times jump by up to 2^40, so some records are longer
				// than the smaller chunks.
				clock += 1 + int64(ops[1])<<(ops[0]/4%41)
				seq[name]++
				history = append(history, event{name, inc[name], seq[name], clock})
				addEvent(s, name, seq[name], clock)
			case 1, 2:
				// An unfiltered scan from zero cursors, or one with a
				// cursor and a prefix.
				var after map[string]int64
				admit := func(string) bool { return true }
				if ops[0]%4 == 2 {
					after = map[string]int64{name: int64(ops[1] % 4)}
					prefix := names[int(ops[1]/4)%len(names)][:2]
					admit = func(q string) bool { return strings.HasPrefix(q, prefix) }
				}
				var want []string
				for i, ev := range history {
					if retained(i) && ev.seq > after[ev.query] && admit(ev.query) {
						want = append(want, eventJSON(ev.query, ev.seq, ev.at))
					}
				}
				if got := resumedJSON(s.resume(after, admit)); !slices.Equal(got, want) {
					t.Fatalf("resume(%v) =\n %s\nwant\n %s", after, strings.Join(got, "\n "), strings.Join(want, "\n "))
				}
			case 3:
				s.drop(name)
				inc[name]++
				seq[name] = 0
			}
			var events, bytes int64
			for i, ev := range history {
				if retained(i) {
					events++
					bytes += int64(len(appendRecord(nil, eventMatch(ev.seq, ev.at))))
				}
			}
			if st := s.stats(); st.ReplayEvents != events || st.ReplayBytes != bytes {
				t.Fatalf("stats = %+v, want %d events, %d bytes", st, events, bytes)
			}
			checkArena(t, s)
		}
	})
}

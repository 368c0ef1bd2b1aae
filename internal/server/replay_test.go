package server

import (
	"fmt"
	"slices"
	"strings"
	"testing"
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

// eventData is the serialized form the log tests store for an event.
func eventData(query string, seq, at int64) []byte {
	return fmt.Appendf(nil, "%s/%d@%d", query, seq, at)
}

// lookupCase is one (query, seq, at) lookup and the event it must hit,
// or "" for a miss.
type lookupCase struct {
	query   string
	seq, at int64
	want    string
}

// TestReplayLog checks the server-wide log on scripted interleavings:
// eviction of the globally oldest event, the O(1) (query, seq) lookup,
// retirement and reuse of a name, and the delivery-order resume scan.
func TestReplayLog(t *testing.T) {
	all := func(string) bool { return true }
	for _, tc := range []struct {
		name     string
		capacity int
		ops      []logOp
		lookups  []lookupCase
		after    map[string]int64
		admit    func(string) bool
		resume   []string // the scan's events, oldest first
	}{{
		name:     "eviction-order-across-queries",
		capacity: 4,
		ops:      []logOp{logAdd("a", 1, 1), logAdd("b", 1, 2), logAdd("a", 2, 3), logAdd("c", 1, 4), logAdd("b", 2, 5), logAdd("a", 3, 6)},
		lookups: []lookupCase{
			{"a", 1, 1, ""}, {"b", 1, 2, ""},
			{"a", 2, 3, "a/2@3"}, {"c", 1, 4, "c/1@4"}, {"b", 2, 5, "b/2@5"}, {"a", 3, 6, "a/3@6"},
		},
		admit:  all,
		resume: []string{"a/2@3", "c/1@4", "b/2@5", "a/3@6"},
	}, {
		// One query's burst evicts every event of another; a later
		// event of the evicted query indexes from its new first seq.
		name:     "lookup-after-cross-query-eviction",
		capacity: 3,
		ops:      []logOp{logAdd("a", 1, 1), logAdd("b", 1, 2), logAdd("b", 2, 3), logAdd("b", 3, 4), logAdd("a", 2, 5)},
		lookups: []lookupCase{
			{"a", 1, 1, ""}, {"b", 1, 2, ""}, {"a", 3, 6, ""}, {"b", 0, 1, ""}, {"zz", 1, 1, ""},
			{"b", 2, 3, "b/2@3"}, {"b", 3, 4, "b/3@4"}, {"a", 2, 5, "a/2@5"},
		},
		admit:  all,
		resume: []string{"b/2@3", "b/3@4", "a/2@5"},
	}, {
		// Wrap-around within one query, then retirement and reuse: the
		// new incarnation numbers from 1 again, and a lagging stream
		// still holding the old seq 2 (completed at 12) must miss rather
		// than be served the new seq 2.
		name:     "wrap-around-and-reuse",
		capacity: 4,
		ops: []logOp{
			logAdd("q", 1, 11), logAdd("q", 2, 12), logAdd("q", 3, 13), logAdd("q", 4, 14),
			logAdd("q", 5, 15), logAdd("q", 6, 16), logAdd("q", 7, 17),
			logDrop("q"), logAdd("q", 1, 20), logAdd("q", 2, 21),
		},
		lookups: []lookupCase{
			{"q", 2, 12, ""}, {"q", 5, 15, ""}, {"q", 7, 17, ""},
			{"q", 1, 20, "q/1@20"}, {"q", 2, 21, "q/2@21"},
		},
		admit:  all,
		resume: []string{"q/1@20", "q/2@21"},
	}, {
		// A retired incarnation's events stay in the log as empty slots:
		// neither the scan nor a lookup serves them, and evicting them
		// later leaves the new incarnation's index intact.
		name:     "drop-and-reregister",
		capacity: 5,
		ops: []logOp{
			logAdd("q", 1, 10), logAdd("r", 1, 11), logAdd("q", 2, 12), logDrop("q"),
			logAdd("q", 1, 20), logAdd("r", 2, 21), logAdd("q", 2, 22), logAdd("q", 3, 23),
		},
		lookups: []lookupCase{
			{"q", 1, 10, ""}, {"q", 2, 12, ""}, {"r", 1, 11, ""},
			{"q", 1, 20, "q/1@20"}, {"q", 2, 22, "q/2@22"}, {"q", 3, 23, "q/3@23"}, {"r", 2, 21, "r/2@21"},
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
		name:     "capacity-1",
		capacity: 1,
		ops:      []logOp{logAdd("a", 1, 1), logAdd("b", 1, 2), logAdd("a", 2, 3)},
		lookups:  []lookupCase{{"a", 1, 1, ""}, {"b", 1, 2, ""}, {"a", 2, 3, "a/2@3"}},
		admit:    all,
		resume:   []string{"a/2@3"},
	}, {
		name:     "capacity-0-holds-one",
		capacity: 0,
		ops:      []logOp{logAdd("a", 1, 1), logAdd("a", 2, 2)},
		lookups:  []lookupCase{{"a", 1, 1, ""}, {"a", 2, 2, "a/2@2"}},
		admit:    all,
		resume:   []string{"a/2@2"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			s := newReplayStore(tc.capacity)
			for _, op := range tc.ops {
				if op.drop {
					s.drop(op.query)
				} else {
					s.add(op.query, op.at, op.seq, eventData(op.query, op.seq, op.at))
				}
			}
			misses := 0
			for _, lc := range tc.lookups {
				d, ok := s.lookup(lc.query, lc.seq, lc.at)
				if got := string(d); ok != (lc.want != "") || got != lc.want {
					t.Errorf("lookup(%s, %d, %d) = %q, %v; want %q", lc.query, lc.seq, lc.at, got, ok, lc.want)
				}
				if !ok {
					misses++
				}
			}
			var got []string
			for _, e := range s.resume(tc.after, tc.admit) {
				got = append(got, string(e.data))
			}
			if !slices.Equal(got, tc.resume) {
				t.Errorf("resume = %q, want %q", got, tc.resume)
			}
			// The counters cover exactly the events an unfiltered resume
			// from zero cursors returns.
			cur := s.resume(nil, all)
			var bytes int64
			for _, e := range cur {
				bytes += int64(len(e.data))
			}
			st := s.stats()
			if st.ReplayEvents != int64(len(cur)) || st.ReplayBytes != bytes || st.ReplayMisses != int64(misses) {
				t.Errorf("stats = %+v, want %d events, %d bytes, %d misses", st, len(cur), bytes, misses)
			}
		})
	}
}

// FuzzReplayLog checks the log against a naive model: a slice of every
// event ever added, in delivery order, of which the log retains the
// last capacity whose incarnation is still current. The input's first
// byte sets the capacity; then each two-byte step adds, looks up,
// scans or drops over three query names.
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
		ops = ops[1:]
		s := newReplayStore(capacity)
		var history []event
		inc := map[string]int{}
		seq := map[string]int64{}
		var clock, misses int64
		retained := func(i int) bool {
			ev := history[i]
			return i >= len(history)-capacity && ev.inc == inc[ev.query]
		}
		for ; len(ops) >= 2; ops = ops[2:] {
			name := names[int(ops[1])%len(names)]
			switch ops[0] % 4 {
			case 0:
				clock++
				seq[name]++
				history = append(history, event{name, inc[name], seq[name], clock})
				s.add(name, clock, seq[name], eventData(name, seq[name], clock))
			case 1:
				// Look up an event from anywhere in the history, or one
				// that was never published.
				i := int(ops[1]) % (len(history) + 1)
				ev := event{query: name, seq: seq[name] + 1, at: clock + 1}
				if i < len(history) {
					ev = history[i]
				}
				d, ok := s.lookup(ev.query, ev.seq, ev.at)
				want := i < len(history) && retained(i)
				if ok != want {
					t.Fatalf("lookup(%s, %d, %d) hit=%v, want %v", ev.query, ev.seq, ev.at, ok, want)
				}
				if ok && string(d) != string(eventData(ev.query, ev.seq, ev.at)) {
					t.Fatalf("lookup(%s, %d, %d) = %q", ev.query, ev.seq, ev.at, d)
				}
				if !ok {
					misses++
				}
			case 2:
				after := map[string]int64{name: int64(ops[1] % 4)}
				prefix := names[int(ops[1]/4)%len(names)][:2]
				admit := func(q string) bool { return strings.HasPrefix(q, prefix) }
				var want, got []string
				for i, ev := range history {
					if retained(i) && ev.seq > after[ev.query] && admit(ev.query) {
						want = append(want, string(eventData(ev.query, ev.seq, ev.at)))
					}
				}
				for _, e := range s.resume(after, admit) {
					got = append(got, string(e.data))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("resume(%v, %q) = %q, want %q", after, prefix, got, want)
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
					bytes += int64(len(eventData(ev.query, ev.seq, ev.at)))
				}
			}
			if st := s.stats(); st.ReplayEvents != events || st.ReplayBytes != bytes || st.ReplayMisses != misses {
				t.Fatalf("stats = %+v, want %d events, %d bytes, %d misses", st, events, bytes, misses)
			}
		}
	})
}

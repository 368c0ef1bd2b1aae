package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"timingsubg"
	"timingsubg/client"
)

// encodeCursors is the reference encoding of an id line: url.Values
// Encode of the cursor map. cursorSet must produce exactly these bytes,
// since parseResumeToken, the client and every stored Last-Event-ID
// depend on them.
func encodeCursors(m map[string]int64) string {
	vals := make(url.Values, len(m))
	for name, seq := range m {
		vals.Set(name, strconv.FormatInt(seq, 10))
	}
	return vals.Encode()
}

// FuzzResumeToken differentially checks the incremental token encoder:
// the input is a sequence of (name, seq) updates — a length byte, that
// many name bytes, then a varint seq — and after every update the
// cursor set's token must equal the reference encoding of the
// equivalent map and round-trip through parseResumeToken.
func FuzzResumeToken(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := newCursorSet(nil)
		want := map[string]int64{}
		var buf []byte
		for len(ops) > 0 {
			n := min(int(ops[0])%8, len(ops)-1)
			name := string(ops[1 : 1+n])
			ops = ops[1+n:]
			seq, k := binary.Varint(ops)
			if k <= 0 {
				seq, k = 0, len(ops)
			}
			ops = ops[k:]

			c.set(name, seq)
			want[name] = seq
			buf = c.appendToken(buf[:0])
			if got, ref := string(buf), encodeCursors(want); got != ref {
				t.Fatalf("after %q=%d: token %q, want %q", name, seq, got, ref)
			}
			back, err := parseResumeToken(string(buf))
			if err != nil {
				t.Fatalf("parse %q: %v", buf, err)
			}
			if !maps.Equal(back, want) {
				t.Fatalf("round trip of %q = %v, want %v", buf, back, want)
			}
		}
	})
}

// TestSSEEmitAllocs guards the live path's per-event step — the
// cursor update, the id line and the match event encoded from the
// delivery into the frame — at zero allocations with 33 cursors (the
// wiki_fleet roster plus one), once each query's head is cached.
func TestSSEEmitAllocs(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	n, ping, pong := srv.labels.Intern("N"), srv.labels.Intern("ping"), srv.labels.Intern("pong")
	m := &timingsubg.Match{Edges: []timingsubg.Edge{
		{ID: 1, From: 1, To: 2, FromLabel: n, ToLabel: n, EdgeLabel: ping, Time: 1},
		{ID: 2, From: 2, To: 1, FromLabel: n, ToLabel: n, EdgeLabel: pong, Time: 2},
	}}
	names := make([]string, 33)
	for i := range names {
		names[i] = fmt.Sprintf("acme:query %d", i)
		srv.qmu.Lock()
		srv.queries[names[i]] = newQueryMeta("acme", names[i][len("acme:"):], 1000)
		srv.qmu.Unlock()
	}
	sse := newSSEFrames(srv, nil)
	for _, name := range names {
		sse.live(timingsubg.Delivery{Query: name, Seq: 1, Match: m})
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sse.live(timingsubg.Delivery{Query: names[i%len(names)], Seq: int64(2 + i/len(names)), Match: m})
		i++
	})
	if allocs != 0 {
		t.Fatalf("per-event SSE step allocates %.1f times, want 0", allocs)
	}
}

const wirePingPong = `
v 0 N
v 1 N
e 0 1 ping
e 1 0 pong
o 0 < 1
`

// sseFrame is one parsed SSE event.
type sseFrame struct {
	id, event, data string
}

// readFrame reads the next event frame, skipping comment lines.
func readFrame(t *testing.T, r *bufio.Reader) sseFrame {
	t.Helper()
	var f sseFrame
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read SSE stream: %v", err)
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case line == "":
			if f != (sseFrame{}) {
				return f
			}
		case strings.HasPrefix(line, ":"):
		case strings.HasPrefix(line, "id: "):
			f.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			f.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			f.data = line[len("data: "):]
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
}

// TestSSEWireBytes pins the served stream end to end: query names that
// need escaping, a resumed stream, and a live burst of 300 matches from
// one ingest. Every id line must be the reference encoding of the
// running cursor map, every data line the bytes json.Marshal(matchEvent)
// gives for that delivery, and each query's seqs dense and in order.
// Live frames are encoded from the deliveries, so a replay log of
// three events (one per query), which evicts nearly every event of the
// burst before the stream reads it, must leave the live bytes as they
// are.
func TestSSEWireBytes(t *testing.T) {
	t.Run("default-ring", func(t *testing.T) { testSSEWireBytes(t, 0) })
	t.Run("ring-of-one", func(t *testing.T) { testSSEWireBytes(t, 3) })
}

func testSSEWireBytes(t *testing.T, replay int) {
	srv := New(Config{SubscriberBuffer: 1024, ReplayBuffer: replay})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := client.New(ts.URL, nil)

	queries := []string{"a:b", "x y", "p,q"}
	for _, q := range queries {
		if err := c.AddQuery(ctx, client.QueryRequest{Name: q, Text: wirePingPong, Window: 1 << 20}); err != nil {
			t.Fatalf("register %q: %v", q, err)
		}
	}
	// The reference: every delivery, serialized the way the server
	// serializes a match.
	ref, err := srv.fl.Subscribe(timingsubg.SubscribeOptions{Buffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Cancel()
	want := map[string][]byte{}
	collect := func() {
		for len(ref.C()) > 0 {
			dv := <-ref.C()
			data, err := json.Marshal(srv.matchEvent(dv))
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprintf("%s/%d", dv.Query, dv.Seq)] = data
		}
	}
	ingest := func(edges []client.Edge) {
		t.Helper()
		if _, err := c.Ingest(ctx, edges); err != nil {
			t.Fatalf("ingest: %v", err)
		}
		collect()
	}
	pair := func(x, y int64) []client.Edge {
		return []client.Edge{
			{From: x, To: y, FromLabel: "N", ToLabel: "N", Label: "ping"},
			{From: y, To: x, FromLabel: "N", ToLabel: "N", Label: "pong"},
		}
	}
	open := func(lastID string) (*bufio.Reader, io.Closer) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			ts.URL+"/subscribe?"+url.Values{"query": queries}.Encode(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("subscribe: %s", resp.Status)
		}
		return bufio.NewReader(resp.Body), resp.Body
	}
	cursors := map[string]int64{}
	check := func(r *bufio.Reader, n int) string {
		t.Helper()
		var id string
		for i := 0; i < n; i++ {
			f := readFrame(t, r)
			var ev client.MatchEvent
			if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
				t.Fatalf("frame %d data %q: %v", i, f.data, err)
			}
			if f.event != "match" {
				t.Fatalf("frame %d event %q", i, f.event)
			}
			if ev.Seq != cursors[ev.Query]+1 {
				t.Fatalf("frame %d: %s seq %d after %d", i, ev.Query, ev.Seq, cursors[ev.Query])
			}
			cursors[ev.Query] = ev.Seq
			if ref := encodeCursors(cursors); f.id != ref {
				t.Fatalf("frame %d id %q, want %q", i, f.id, ref)
			}
			if ref := want[fmt.Sprintf("%s/%d", ev.Query, ev.Seq)]; f.data != string(ref) {
				t.Fatalf("frame %d data\n %s\nwant\n %s", i, f.data, ref)
			}
			id = f.id
		}
		return id
	}

	// A fresh stream sees one match per query.
	r1, body1 := open("")
	ingest(pair(1, 2))
	token := check(r1, len(queries))
	body1.Close()

	// One match per query while disconnected (a log of three still
	// holds them), replayed on resume; then the live burst: a ping answered by
	// 100 pongs is 100 matches per query from one ingest.
	ingest(pair(3, 4))
	r2, body2 := open(token)
	defer body2.Close()
	check(r2, len(queries))
	burst := []client.Edge{{From: 5, To: 6, FromLabel: "N", ToLabel: "N", Label: "ping"}}
	for range 100 {
		burst = append(burst, client.Edge{From: 6, To: 5, FromLabel: "N", ToLabel: "N", Label: "pong"})
	}
	ingest(burst)
	check(r2, 100*len(queries))
	for _, q := range queries {
		if cursors[q] != 102 {
			t.Fatalf("%s ended at seq %d, want 102", q, cursors[q])
		}
	}
	if len(want) != 102*len(queries) {
		t.Fatalf("reference saw %d deliveries, want %d", len(want), 102*len(queries))
	}
	// The log retains the run's last events, as many as it holds.
	if held, want := srv.replay.stats().ReplayEvents, int64(min(srv.replay.capacity, len(want))); held != want {
		t.Fatalf("replay log holds %d events, want %d", held, want)
	}
}

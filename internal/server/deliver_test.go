package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"timingsubg"
	"timingsubg/client"
)

// registerQuery adds the ping/pong query name to srv through its HTTP
// handler, so the query has the roster entry a live one has.
func registerQuery(tb testing.TB, srv *Server, name string, window int64) {
	tb.Helper()
	body, err := json.Marshal(client.QueryRequest{Name: name, Text: wirePingPong, Window: window})
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/queries", strings.NewReader(string(body))))
	if rec.Code != http.StatusCreated {
		tb.Fatalf("register %q: %d %s", name, rec.Code, rec.Body)
	}
}

// TestRecordAllocs pins the delivery hook's budget: once the replay log
// is full and the labels are mirrored, recording a match allocates
// exactly once, the retained event body. The query's JSON head, the
// label literals and the encoding scratch are all reused.
func TestRecordAllocs(t *testing.T) {
	const capacity = 64
	srv := New(Config{ReplayBuffer: capacity})
	defer srv.Close()
	registerQuery(t, srv, "pp", 1000)
	n, ping, pong := srv.labels.Intern("N"), srv.labels.Intern("ping"), srv.labels.Intern("pong")
	m := &timingsubg.Match{Edges: []timingsubg.Edge{
		{ID: 1, From: 1, To: 2, FromLabel: n, ToLabel: n, EdgeLabel: ping, Time: 1},
		{ID: 2, From: 2, To: 1, FromLabel: n, ToLabel: n, EdgeLabel: pong, Time: 2},
	}}
	dv := timingsubg.Delivery{Query: "pp", Match: m}
	for range capacity + 1 {
		dv.Seq++
		srv.record(dv)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		dv.Seq++
		srv.record(dv)
	})
	if allocs != 1 {
		t.Fatalf("record allocates %.1f times, want 1 (the retained body)", allocs)
	}
	data, ok := srv.replay.lookup("pp", dv.Seq, 2)
	if !ok {
		t.Fatal("the last recorded event is not in the log")
	}
	want, err := json.Marshal(srv.matchEvent(dv))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(want) {
		t.Fatalf("logged\n %s\nwant\n %s", data, want)
	}
}

// BenchmarkDeliver measures the delivery hop per delivered event: an
// ingested ping/pong pair completes one match in core, which the fleet
// publishes, record serializes into the resume log, and one DropOldest
// subscriber turns into its SSE frame (log lookup, cursor update, id
// line) before releasing the match. Feeding the pair is included; the
// HTTP write is not (frames go to io.Discard).
func BenchmarkDeliver(b *testing.B) {
	srv := New(Config{})
	defer srv.Close()
	const window = 64
	registerQuery(b, srv, "pp", window)
	sub, err := srv.fl.Subscribe(timingsubg.SubscribeOptions{
		Queries: []string{"pp"}, Buffer: 16, Policy: timingsubg.DropOldest,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Cancel()
	n, ping, pong := srv.labels.Intern("N"), srv.labels.Intern("ping"), srv.labels.Intern("pong")
	sse := sseFrames{cursors: newCursorSet(nil)}
	pair := make([]timingsubg.Edge, 2)
	var now timingsubg.Timestamp
	delivered := 0
	deliver := func(v timingsubg.VertexID) {
		now += 2
		pair[0] = timingsubg.Edge{From: v, To: v + 1, FromLabel: n, ToLabel: n, EdgeLabel: ping, Time: now - 1}
		pair[1] = timingsubg.Edge{From: v + 1, To: v, FromLabel: n, ToLabel: n, EdgeLabel: pong, Time: now}
		if _, err := srv.fl.FeedBatch(pair); err != nil {
			b.Fatal(err)
		}
		for len(sub.C()) > 0 {
			dv := <-sub.C()
			if _, err := io.Discard.Write(sse.frame(dv.Query, dv.Seq, sse.live(srv, dv))); err != nil {
				b.Fatal(err)
			}
			sub.Release(dv)
			delivered++
		}
	}
	var v timingsubg.VertexID
	for range 2 * window { // fill the window, so each pair slides it
		v += 2
		deliver(v)
	}
	delivered = 0
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		v += 2
		deliver(v)
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d events for %d pairs, want one per pair", delivered, b.N)
	}
}

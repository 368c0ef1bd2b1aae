package server

import (
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"timingsubg"
	"timingsubg/client"
	"timingsubg/internal/tenant"
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
// is full and its arena has turned over, recording a match allocates
// nothing. The record is encoded into the query's scratch and copied
// into a recycled chunk. The event it keeps resumes as the bytes
// json.Marshal writes for the delivery.
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
	// Enough events to fill several chunks, so the arena has recycled
	// one and keeps it spare; the measured run records as many again,
	// counted in total, since a chunk opens only every few thousand.
	chunks := 3 * chunkSize / len(appendRecord(nil, m))
	for range chunks {
		dv.Seq++
		srv.record(dv)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for range chunks {
			dv.Seq++
			srv.record(dv)
		}
	})
	if allocs != 0 {
		t.Fatalf("%d records allocate %.0f times, want 0", chunks, allocs)
	}
	evs := srv.replay.resume(map[string]int64{"pp": dv.Seq - 1}, func(string) bool { return true })
	if len(evs) != 1 || evs[0].seq != dv.Seq {
		t.Fatalf("resume after seq %d = %+v, want the last recorded event", dv.Seq-1, evs)
	}
	want, err := json.Marshal(srv.matchEvent(dv))
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.labelEnc.appendRecordEvent(nil, evs[0].head, evs[0].seq, evs[0].rec); string(got) != string(want) {
		t.Fatalf("resumed\n %s\nwant\n %s", got, want)
	}
}

// TestReplayRecordSize guards the log's compact form: on a seeded
// ping/pong stream, the log retains every match, each in at most 48
// record bytes, where its JSON takes over a hundred.
func TestReplayRecordSize(t *testing.T) {
	srv := New(Config{ReplayBuffer: 1 << 14})
	defer srv.Close()
	registerQuery(t, srv, "pp", 1000)
	ref, err := srv.fl.Subscribe(timingsubg.SubscribeOptions{Buffer: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Cancel()
	n, ping, pong := srv.labels.Intern("N"), srv.labels.Intern("ping"), srv.labels.Intern("pong")
	rng := rand.New(rand.NewPCG(7, 49))
	var now timingsubg.Timestamp
	var edges []timingsubg.Edge
	for range 4000 {
		v := timingsubg.VertexID(rng.IntN(1 << 24))
		now += timingsubg.Timestamp(1 + rng.IntN(20))
		edges = append(edges, timingsubg.Edge{From: v, To: v + 1, FromLabel: n, ToLabel: n, EdgeLabel: ping, Time: now})
		now += timingsubg.Timestamp(1 + rng.IntN(200))
		edges = append(edges, timingsubg.Edge{From: v + 1, To: v, FromLabel: n, ToLabel: n, EdgeLabel: pong, Time: now})
	}
	if _, err := srv.fl.FeedBatch(edges); err != nil {
		t.Fatal(err)
	}
	matches := int64(len(ref.C()))
	st := srv.replay.stats()
	if matches == 0 || st.ReplayEvents != matches {
		t.Fatalf("log holds %d events, want the %d matches", st.ReplayEvents, matches)
	}
	if per := float64(st.ReplayBytes) / float64(st.ReplayEvents); per > 48 {
		t.Fatalf("log keeps %.1f B per event (%d B for %d), want at most 48", per, st.ReplayBytes, st.ReplayEvents)
	}
}

// tenantServer is a server with tenant acme (key k-acme) and admin key
// root, and a call that sends one request with a key and checks its
// status.
func tenantServer(t *testing.T) (*Server, func(key, method, path, body string, want int)) {
	t.Helper()
	reg := tenant.NewRegistry()
	if _, err := reg.Create(tenant.Spec{Name: "acme", Keys: []tenant.KeySpec{{Key: "k-acme", Role: tenant.RoleWrite}}}); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Tenants: reg, AdminKey: "root"})
	t.Cleanup(func() { srv.Close() })
	return srv, func(key, method, path, body string, want int) {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+key)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != want {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
	}
}

// pingPongNDJSON is an ingest body whose two edges complete one
// ping/pong match.
const pingPongNDJSON = `{"from":1,"to":2,"from_label":"N","to_label":"N","label":"ping"}
{"from":2,"to":1,"from_label":"N","to_label":"N","label":"pong"}`

// pingPongEvent is the wire form of the match pingPongNDJSON completes
// as a query's first, at times at and at+1.
func pingPongEvent(t *testing.T, query, owner string, at int64) string {
	t.Helper()
	b, err := json.Marshal(client.MatchEvent{Query: query, Tenant: owner, Seq: 1, Edges: []client.MatchEdge{
		{ID: 0, From: 1, To: 2, Label: "ping", Time: at},
		{ID: 1, From: 2, To: 1, Label: "pong", Time: at + 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func queryJSON(t *testing.T, name string) string {
	t.Helper()
	b, err := json.Marshal(client.QueryRequest{Name: name, Text: wirePingPong, Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRetiredQueryKeepsWireName checks a delivery still queued on an
// unfiltered tenant stream when its query is deleted: it renders under
// the wire name and owner it was published with, not under the
// internal roster name.
func TestRetiredQueryKeepsWireName(t *testing.T) {
	srv, call := tenantServer(t)
	call("k-acme", http.MethodPost, "/queries", queryJSON(t, "pp"), http.StatusCreated)
	sub, err := srv.fl.Subscribe(timingsubg.SubscribeOptions{Prefix: "acme:", Buffer: 4, Policy: timingsubg.DropOldest})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	call("k-acme", http.MethodPost, "/ingest", pingPongNDJSON, http.StatusOK)
	if len(sub.C()) != 1 {
		t.Fatalf("%d deliveries queued, want 1", len(sub.C()))
	}
	call("k-acme", http.MethodDelete, "/queries/pp", "", http.StatusNoContent)
	dv := <-sub.C()
	want := pingPongEvent(t, "pp", "acme", 1)
	if got := srv.labelEnc.appendMatchEvent(nil, srv.eventsOf(dv.Query).head, dv.Seq, dv.Match); string(got) != want {
		t.Fatalf("queued delivery after DELETE renders\n %s\nwant\n %s", got, want)
	}
}

// TestSSEHeadFollowsReuse checks the live path's per-connection head
// cache across a DELETE: when the internal name is registered again by
// another owner, the connection's next event carries the new owner's
// head.
func TestSSEHeadFollowsReuse(t *testing.T) {
	srv, call := tenantServer(t)
	sub, err := srv.fl.Subscribe(timingsubg.SubscribeOptions{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	sse := newSSEFrames(srv, nil)
	data := func() string {
		t.Helper()
		frame := string(sse.live(<-sub.C()))
		i := strings.Index(frame, "data: ")
		return strings.TrimSuffix(frame[i+len("data: "):], "\n\n")
	}

	// The admin addresses the roster verbatim: "acme:pp" is its own
	// wire name, unowned.
	call("root", http.MethodPost, "/queries", queryJSON(t, "acme:pp"), http.StatusCreated)
	call("root", http.MethodPost, "/ingest", pingPongNDJSON, http.StatusOK)
	if got, want := data(), pingPongEvent(t, "acme:pp", "", 1); got != want {
		t.Fatalf("admin's query renders\n %s\nwant\n %s", got, want)
	}
	call("root", http.MethodDelete, "/queries/acme:pp", "", http.StatusNoContent)
	call("k-acme", http.MethodPost, "/queries", queryJSON(t, "pp"), http.StatusCreated)
	call("k-acme", http.MethodPost, "/ingest", pingPongNDJSON, http.StatusOK)
	if got, want := data(), pingPongEvent(t, "pp", "acme", 3); got != want {
		t.Fatalf("acme's query under the reused name renders\n %s\nwant\n %s", got, want)
	}
}

// BenchmarkDeliver measures the delivery hop per delivered event: an
// ingested ping/pong pair completes one match in core, which the fleet
// publishes, record keeps in the resume log as a compact record, and
// one DropOldest subscriber turns into its SSE frame (cursor update, id
// line, the match event's JSON encoded from the delivery) before
// releasing the match. Feeding the pair is included; the HTTP write is
// not (frames go to io.Discard).
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
	sse := newSSEFrames(srv, nil)
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
			if _, err := io.Discard.Write(sse.live(dv)); err != nil {
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

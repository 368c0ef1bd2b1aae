package server_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"timingsubg"
	"timingsubg/client"
	"timingsubg/internal/server"
)

// pingPong is a two-edge pattern A→B then B→A, strictly ordered, so a
// match needs window state spanning both edges.
const pingPong = `
v 0 N
v 1 N
e 0 1 ping
e 1 0 pong
o 0 < 1
`

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// edge builds a wire edge with server-assigned time.
func edge(from, to int64, label string) client.Edge {
	return client.Edge{From: from, To: to, FromLabel: "N", ToLabel: "N", Label: label}
}

// recvMatch waits for one match event or fails.
func recvMatch(t *testing.T, sub *client.Subscription) client.MatchEvent {
	t.Helper()
	select {
	case m, ok := <-sub.Events:
		if !ok {
			t.Fatalf("subscription closed early (err: %v)", sub.Err())
		}
		return m
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a match event")
	}
	panic("unreachable")
}

func TestServerEndToEnd(t *testing.T) {
	srv := server.New(server.Config{Routed: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, nil)
	ctx := testCtx(t)

	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	// Registration validation.
	if err := c.AddQuery(ctx, client.QueryRequest{Name: "bad", Text: "nonsense", Window: 10}); err == nil {
		t.Fatal("registering an unparsable query must fail")
	}
	if err := c.AddQuery(ctx, client.QueryRequest{Name: "bad", Text: pingPong, Window: 0}); err == nil {
		t.Fatal("registering with a non-positive window must fail")
	}
	if err := c.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 100}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := c.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 100}); err == nil {
		t.Fatal("duplicate registration must fail")
	} else if !strings.Contains(err.Error(), "409") {
		t.Fatalf("duplicate registration: want 409, got %v", err)
	}
	list, err := c.Queries(ctx)
	if err != nil {
		t.Fatalf("list queries: %v", err)
	}
	if len(list.Queries) != 1 || list.Queries[0].Name != "pp" || list.Queries[0].Window != 100 {
		t.Fatalf("query list = %+v", list)
	}

	// Subscribing to an unknown query 404s.
	if _, err := c.Subscribe(ctx, "nope"); err == nil {
		t.Fatal("subscribing to an unknown query must fail")
	}
	sub, err := c.Subscribe(ctx, "pp")
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()

	// Ingest: a bad JSON line and an out-of-order line are rejected
	// individually; the rest of the batch lands and completes a match.
	res, err := c.Ingest(ctx, []client.Edge{
		edge(1, 2, "ping"),  // t=1
		edge(7, 8, "other"), // t=2, noise
		{From: 9, To: 10, FromLabel: "N", ToLabel: "N", Label: "x", Time: 1}, // out of order
		edge(2, 1, "pong"), // t=3, completes the match
	})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if res.Accepted != 3 || res.Rejected != 1 || len(res.Errors) != 1 || res.Errors[0].Line != 3 {
		t.Fatalf("ingest result = %+v", res)
	}
	m := recvMatch(t, sub)
	if m.Query != "pp" || len(m.Edges) != 2 {
		t.Fatalf("match event = %+v", m)
	}
	if m.Edges[0].Label != "ping" || m.Edges[1].Label != "pong" {
		t.Fatalf("match labels = %+v", m.Edges)
	}
	if m.Edges[0].Time != 1 || m.Edges[1].Time != 3 {
		t.Fatalf("match times = %+v", m.Edges)
	}

	// Stats are one typed snapshot, sampled on the work loop.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if got := stats.Ingested; got != 3 {
		t.Fatalf("server.ingested = %v, want 3", got)
	}
	if got := stats.Fleet.Queries["pp"].Matches; got != 1 {
		t.Fatalf("fleet.stats.queries[pp].matches = %v, want 1", got)
	}

	// Runtime retirement: the stream must end and deliver nothing more.
	if err := c.RemoveQuery(ctx, "pp"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := c.RemoveQuery(ctx, "pp"); err == nil {
		t.Fatal("removing an unknown query must fail")
	}
	select {
	case m, ok := <-sub.Events:
		if ok {
			t.Fatalf("unexpected delivery after removal: %+v", m)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscription did not close after query removal")
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("subscription ended with error: %v", err)
	}

	// The stream is still live without a restart: a fresh query over the
	// same connection-less server keeps matching new traffic.
	if err := c.AddQuery(ctx, client.QueryRequest{Name: "pp2", Text: pingPong, Window: 100}); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	sub2, err := c.Subscribe(ctx, "pp2")
	if err != nil {
		t.Fatalf("subscribe pp2: %v", err)
	}
	defer sub2.Close()
	if _, err := c.Ingest(ctx, []client.Edge{edge(5, 6, "ping"), edge(6, 5, "pong")}); err != nil {
		t.Fatalf("ingest 2: %v", err)
	}
	if m := recvMatch(t, sub2); m.Query != "pp2" {
		t.Fatalf("second-generation match = %+v", m)
	}
}

// TestServerDurableRestart proves the acceptance path: with the WAL
// enabled, a server that dies mid-window comes back with its query
// fleet, label table and window state intact, and an edge ingested
// after the restart completes a match whose first half predates it.
func TestServerDurableRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	ctx := testCtx(t)
	popts := timingsubg.Durability{Dir: dir, SyncEvery: 1}

	srv1, err := server.NewDurable(server.Config{}, popts)
	if err != nil {
		t.Fatalf("open durable: %v", err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := client.New(ts1.URL, nil)
	if err := c1.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 1000}); err != nil {
		t.Fatalf("register: %v", err)
	}
	// First half of the pattern, plus noise, lands before the "crash".
	if _, err := c1.Ingest(ctx, []client.Edge{
		edge(1, 2, "ping"),
		edge(30, 31, "other"),
	}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	// Kill the process without a clean Close: the HTTP front dies and
	// the fleet is simply abandoned (its WAL was fsynced per append).
	ts1.Close()

	srv2, err := server.NewDurable(server.Config{}, popts)
	if err != nil {
		t.Fatalf("reopen durable: %v", err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := client.New(ts2.URL, nil)

	// The query registry survived.
	list, err := c2.Queries(ctx)
	if err != nil {
		t.Fatalf("list after restart: %v", err)
	}
	if len(list.Queries) != 1 || list.Queries[0].Name != "pp" || list.Queries[0].Window != 1000 {
		t.Fatalf("query list after restart = %+v", list)
	}
	stats, err := c2.Stats(ctx)
	if err != nil {
		t.Fatalf("stats after restart: %v", err)
	}
	if got := stats.Fleet.Replayed; got != 2 {
		t.Fatalf("fleet.stats.replayed = %v, want 2", got)
	}
	if got := stats.LastTime; got != 2 {
		t.Fatalf("server.last_time = %v, want 2 (stream clock must survive)", got)
	}

	// The second half of the pattern completes against replayed state.
	sub, err := c2.Subscribe(ctx, "pp")
	if err != nil {
		t.Fatalf("subscribe after restart: %v", err)
	}
	defer sub.Close()
	if _, err := c2.Ingest(ctx, []client.Edge{edge(2, 1, "pong")}); err != nil {
		t.Fatalf("ingest after restart: %v", err)
	}
	m := recvMatch(t, sub)
	if len(m.Edges) != 2 || m.Edges[0].Label != "ping" || m.Edges[0].Time != 1 || m.Edges[1].Time != 3 {
		t.Fatalf("post-restart match = %+v", m.Edges)
	}
	// Durable edge IDs are WAL sequence numbers: ping was record 0,
	// pong record 2.
	if m.Edges[0].ID != 0 || m.Edges[1].ID != 2 {
		t.Fatalf("post-restart match IDs = %+v, want WAL seqs 0 and 2", m.Edges)
	}

	// A clean close checkpoints; a third open replays nothing new and
	// still answers.
	if err := srv2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	srv3, err := server.NewDurable(server.Config{}, popts)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer srv3.Close()
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	c3 := client.New(ts3.URL, nil)
	stats, err = c3.Stats(ctx)
	if err != nil {
		t.Fatalf("third stats: %v", err)
	}
	if got := stats.Fleet.Queries["pp"].Matches; got != 1 {
		t.Fatalf("durable match count after two restarts = %v, want 1", got)
	}
}

// TestServerShardedFleet runs the serving layer over a sharded fleet
// (the tsserved -fleet-workers path): registration, ingest, match
// delivery and the shard section of the stats snapshot all work, and
// the shard counts reflect the live roster.
// TestRoutedDurableWarns: tsserved -routed -wal cannot route (Open
// rejects Routed with Durable), so the server broadcasts — and must say
// so once at start-up rather than drop the flag silently. The warning
// fires exactly when both are set.
func TestRoutedDurableWarns(t *testing.T) {
	for _, tc := range []struct {
		name            string
		routed, durable bool
		want            int
	}{
		{"routed-durable", true, true, 1},
		{"durable", false, true, 0},
		{"routed", true, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logged bytes.Buffer
			cfg := server.Config{
				Routed: tc.routed,
				Logger: slog.New(slog.NewTextHandler(&logged, &slog.HandlerOptions{Level: slog.LevelWarn})),
			}
			if tc.durable {
				srv, err := server.NewDurable(cfg, timingsubg.Durability{Dir: filepath.Join(t.TempDir(), "state")})
				if err != nil {
					t.Fatalf("open durable: %v", err)
				}
				srv.Close()
			} else {
				server.New(cfg).Close()
			}
			if got := strings.Count(logged.String(), "Routed ignored"); got != tc.want {
				t.Fatalf("%d routed-ignored warnings, want %d:\n%s", got, tc.want, logged.String())
			}
		})
	}
}

func TestServerShardedFleet(t *testing.T) {
	srv := server.New(server.Config{FleetWorkers: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, nil)
	ctx := testCtx(t)

	for _, name := range []string{"pp1", "pp2", "pp3"} {
		if err := c.AddQuery(ctx, client.QueryRequest{Name: name, Text: pingPong, Window: 100}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	sub, err := c.Subscribe(ctx, "pp2")
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()
	if _, err := c.Ingest(ctx, []client.Edge{edge(1, 2, "ping"), edge(2, 1, "pong")}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if m := recvMatch(t, sub); m.Query != "pp2" || len(m.Edges) != 2 {
		t.Fatalf("sharded match event = %+v", m)
	}

	es, err := c.EngineStats(ctx)
	if err != nil {
		t.Fatalf("engine stats: %v", err)
	}
	if es.FleetWorkers != 4 || len(es.ShardMembers) != 4 {
		t.Fatalf("stats shard section = workers %d, shards %v", es.FleetWorkers, es.ShardMembers)
	}
	total := 0
	for _, n := range es.ShardMembers {
		total += n
	}
	if total != 3 {
		t.Fatalf("shard member counts %v sum to %d, want the 3 live queries", es.ShardMembers, total)
	}
	if es.Queries["pp1"].Matches != 1 || es.Queries["pp3"].Matches != 1 {
		t.Fatalf("broadcast members diverge: %+v", es.Queries)
	}
}

// TestServerBackpressure checks that the bounded work queue sheds or
// delays work instead of buffering without limit: a request whose
// context is already cancelled must not be admitted.
func TestServerBackpressure(t *testing.T) {
	srv := server.New(server.Config{QueueDepth: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Ingest(ctx, []client.Edge{edge(1, 2, "x")}); err == nil {
		t.Fatal("ingest with a dead context must fail")
	}

	// And the server still works afterwards.
	ctx2 := testCtx(t)
	if _, err := c.Ingest(ctx2, []client.Edge{edge(1, 2, "x")}); err != nil {
		t.Fatalf("ingest after cancelled request: %v", err)
	}
}

// flakyProxy is a TCP forwarder whose live connections the test can
// sever at will — the "network dies under an SSE stream" harness for
// the reconnect-and-resume path.
type flakyProxy struct {
	ln      net.Listener
	backend string
	mu      sync.Mutex
	conns   []net.Conn
}

func newFlakyProxy(t *testing.T, backend string) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &flakyProxy{ln: ln, backend: backend}
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", backend)
			if err != nil {
				in.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, in, out)
			p.mu.Unlock()
			go func() { io.Copy(out, in); out.Close() }()
			go func() { io.Copy(in, out); in.Close() }()
		}
	}()
	t.Cleanup(func() { ln.Close(); p.killConns() })
	return p
}

func (p *flakyProxy) url() string { return "http://" + p.ln.Addr().String() }

// killConns severs every live proxied connection.
func (p *flakyProxy) killConns() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// TestServerSubscribeFilterAndResume drives the new results-plane SSE
// surface directly: a multi-query ?queries= filter, per-query sequence
// numbers on every event, and Last-Event-ID resumption that replays
// events delivered while no subscriber was connected.
func TestServerSubscribeFilterAndResume(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, nil)
	ctx := testCtx(t)

	for _, name := range []string{"a", "b", "noise"} {
		if err := c.AddQuery(ctx, client.QueryRequest{Name: name, Text: pingPong, Window: 1000}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	pair := func(x, y int64) []client.Edge {
		return []client.Edge{edge(x, y, "ping"), edge(y, x, "pong")}
	}

	// A filtered subscription sees a and b, never noise (all three
	// queries match every pair — the fleet broadcasts).
	sub, err := c.SubscribeOpts(ctx, client.SubscribeOptions{Queries: []string{"a", "b"}})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if _, err := c.Ingest(ctx, pair(1, 2)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	got := map[string]int64{}
	for i := 0; i < 2; i++ {
		m := recvMatch(t, sub)
		got[m.Query] = m.Seq
	}
	if got["a"] != 1 || got["b"] != 1 {
		t.Fatalf("first round seqs = %v, want a:1 b:1", got)
	}
	// The client advances LastEventID only after handing an event to
	// Events, so right after the second receive the token may still
	// cover only the first query. Wait until it names both.
	var token string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		token = sub.LastEventID()
		if vals, err := url.ParseQuery(token); err == nil && vals.Has("a") && vals.Has("b") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resume token %q never covered both a and b", token)
		}
	}
	sub.Close()

	// Matches delivered while nobody is connected land in the resume
	// ring; a new subscription presenting the old token replays them.
	if _, err := c.Ingest(ctx, pair(3, 4)); err != nil {
		t.Fatalf("ingest while disconnected: %v", err)
	}
	sub2, err := c.SubscribeOpts(ctx, client.SubscribeOptions{Queries: []string{"a", "b"}, LastEventID: token})
	if err != nil {
		t.Fatalf("resubscribe: %v", err)
	}
	defer sub2.Close()
	round2 := map[string]int64{}
	for i := 0; i < 2; i++ {
		m := recvMatch(t, sub2)
		if m.Seq <= got[m.Query] {
			t.Fatalf("resumed stream replayed already-seen %s seq %d", m.Query, m.Seq)
		}
		round2[m.Query] = m.Seq
	}
	if round2["a"] != 2 || round2["b"] != 2 {
		t.Fatalf("resumed seqs = %v, want a:2 b:2", round2)
	}
	// And the live tail still flows on the resumed stream.
	if _, err := c.Ingest(ctx, pair(5, 6)); err != nil {
		t.Fatalf("ingest after resume: %v", err)
	}
	for i := 0; i < 2; i++ {
		if m := recvMatch(t, sub2); m.Seq != 3 {
			t.Fatalf("live-after-resume %s seq = %d, want 3", m.Query, m.Seq)
		}
	}
}

// TestClientReconnectResume kills the TCP connection under a
// Reconnect-enabled subscription and proves the client re-establishes
// the stream and resumes: every match is delivered exactly once, in
// order, across the outage — including one reported while the client
// was disconnected.
func TestClientReconnectResume(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := testCtx(t)

	// Admin and ingest go straight to the server; only the SSE stream
	// runs through the severable proxy.
	direct := client.New(ts.URL, nil)
	if err := direct.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 10000}); err != nil {
		t.Fatalf("register: %v", err)
	}
	proxy := newFlakyProxy(t, ts.Listener.Addr().String())
	streamer := client.New(proxy.url(), nil)
	sub, err := streamer.SubscribeOpts(ctx, client.SubscribeOptions{
		Queries:   []string{"pp"},
		Reconnect: true,
	})
	if err != nil {
		t.Fatalf("subscribe through proxy: %v", err)
	}
	defer sub.Close()

	pair := func(x, y int64) []client.Edge {
		return []client.Edge{edge(x, y, "ping"), edge(y, x, "pong")}
	}
	if _, err := direct.Ingest(ctx, pair(1, 2)); err != nil {
		t.Fatalf("ingest 1: %v", err)
	}
	if m := recvMatch(t, sub); m.Seq != 1 {
		t.Fatalf("first match seq = %d, want 1", m.Seq)
	}

	// Sever the stream, and report a match while the client is down.
	proxy.killConns()
	if _, err := direct.Ingest(ctx, pair(3, 4)); err != nil {
		t.Fatalf("ingest during outage: %v", err)
	}
	// The client reconnects on its own and resumes: the outage match is
	// replayed from the server's ring, exactly once.
	if m := recvMatch(t, sub); m.Seq != 2 {
		t.Fatalf("post-outage match seq = %d, want 2 (no loss, no dup)", m.Seq)
	}
	if _, err := direct.Ingest(ctx, pair(5, 6)); err != nil {
		t.Fatalf("ingest 3: %v", err)
	}
	if m := recvMatch(t, sub); m.Seq != 3 {
		t.Fatalf("live match after reconnect seq = %d, want 3", m.Seq)
	}

	// Retiring the query ends even a reconnecting stream: the engine
	// retires the subscription, the reconnect attempt gets a definitive
	// 404, and the client reports it as the terminal error.
	if err := direct.RemoveQuery(ctx, "pp"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	select {
	case m, ok := <-sub.Events:
		if ok {
			t.Fatalf("unexpected delivery after removal: %+v", m)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reconnecting stream did not terminate after query removal")
	}
	var apiErr *client.APIError
	if err := sub.Err(); !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("terminal error = %v, want a 404 APIError", err)
	}
}

// TestSubscribeReusedNameLive: deleting a query resets its sequence, so
// a query re-registered under the same name starts again at seq 1. An
// open unfiltered stream follows the roster across the change and must
// carry the new query's first matches rather than drop them as already
// seen under the old query's cursor.
func TestSubscribeReusedNameLive(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, nil)
	ctx := testCtx(t)

	register := func() {
		t.Helper()
		if err := c.AddQuery(ctx, client.QueryRequest{Name: "a", Text: pingPong, Window: 1000}); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	// feed ingests n ping-pong pairs on fresh vertices: one match each.
	next := int64(1)
	feed := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			x := next
			next += 2
			if _, err := c.Ingest(ctx, []client.Edge{edge(x, x+1, "ping"), edge(x+1, x, "pong")}); err != nil {
				t.Fatalf("ingest: %v", err)
			}
		}
	}
	register()
	sub, err := c.SubscribeOpts(ctx, client.SubscribeOptions{})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()
	feed(3)
	for want := int64(1); want <= 3; want++ {
		if m := recvMatch(t, sub); m.Query != "a" || m.Seq != want {
			t.Fatalf("first incarnation: got %s seq %d, want a seq %d", m.Query, m.Seq, want)
		}
	}
	if err := c.RemoveQuery(ctx, "a"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	register()
	feed(4)
	for want := int64(1); want <= 4; want++ {
		if m := recvMatch(t, sub); m.Query != "a" || m.Seq != want {
			t.Fatalf("re-registered query: got %s seq %d, want a seq %d", m.Query, m.Seq, want)
		}
	}
}

// TestServerSubscribeFreshStartsFromNow pins SSE convention: a
// subscriber presenting no Last-Event-ID gets a live tail, not a
// replay of retained history; and a query name containing a comma
// survives the trip through the client's verbatim ?query= parameters.
func TestServerSubscribeFreshStartsFromNow(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, nil)
	ctx := testCtx(t)

	const oddName = "pp,v2" // commas are legal in query names
	if err := c.AddQuery(ctx, client.QueryRequest{Name: oddName, Text: pingPong, Window: 1000}); err != nil {
		t.Fatalf("register: %v", err)
	}
	// History accrues with nobody subscribed.
	if _, err := c.Ingest(ctx, []client.Edge{edge(1, 2, "ping"), edge(2, 1, "pong")}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	sub, err := c.Subscribe(ctx, oddName) // no Last-Event-ID
	if err != nil {
		t.Fatalf("subscribe to comma-name: %v", err)
	}
	defer sub.Close()
	// The retained seq-1 event must NOT be replayed...
	select {
	case m := <-sub.Events:
		t.Fatalf("fresh subscriber replayed history: %+v", m)
	case <-time.After(200 * time.Millisecond):
	}
	// ...but live traffic flows, under the exact comma name.
	if _, err := c.Ingest(ctx, []client.Edge{edge(3, 4, "ping"), edge(4, 3, "pong")}); err != nil {
		t.Fatalf("ingest 2: %v", err)
	}
	if m := recvMatch(t, sub); m.Query != oddName || m.Seq != 2 {
		t.Fatalf("live match = %+v, want query %q seq 2", m, oddName)
	}
	// Explicit zero cursors opt back in to the retained history.
	sub2, err := c.SubscribeOpts(ctx, client.SubscribeOptions{
		Queries:     []string{oddName},
		LastEventID: "pp%2Cv2=0",
	})
	if err != nil {
		t.Fatalf("backfill subscribe: %v", err)
	}
	defer sub2.Close()
	if m := recvMatch(t, sub2); m.Seq != 1 {
		t.Fatalf("backfill first event seq = %d, want 1", m.Seq)
	}
	if m := recvMatch(t, sub2); m.Seq != 2 {
		t.Fatalf("backfill second event seq = %d, want 2", m.Seq)
	}
}

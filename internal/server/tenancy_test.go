package server_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"timingsubg"
	"timingsubg/client"
	"timingsubg/internal/server"
	"timingsubg/internal/tenant"
)

// twoTenantRegistry builds a registry with tenants "acme" (write key
// k-acme, read key k-acme-ro) and "bmart" (write key k-bmart).
func twoTenantRegistry(t *testing.T) *tenant.Registry {
	t.Helper()
	reg := tenant.NewRegistry()
	if _, err := reg.Create(tenant.Spec{
		Name: "acme",
		Keys: []tenant.KeySpec{
			{Key: "k-acme", Role: tenant.RoleWrite},
			{Key: "k-acme-ro", Role: tenant.RoleRead},
		},
	}); err != nil {
		t.Fatalf("create acme: %v", err)
	}
	if _, err := reg.Create(tenant.Spec{
		Name: "bmart",
		Keys: []tenant.KeySpec{{Key: "k-bmart", Role: tenant.RoleWrite}},
	}); err != nil {
		t.Fatalf("create bmart: %v", err)
	}
	return reg
}

// statusOf unwraps the HTTP status code of a client error.
func statusOf(t *testing.T, err error) int {
	t.Helper()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want an *APIError, got %v", err)
	}
	return apiErr.StatusCode
}

func TestTenantAuth(t *testing.T) {
	srv := server.New(server.Config{Tenants: twoTenantRegistry(t), AdminKey: "root"})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := testCtx(t)
	base := client.New(ts.URL, nil)
	pp := client.QueryRequest{Name: "pp", Text: pingPong, Window: 100}

	// No key and no default tenant: 401, with a WWW-Authenticate
	// challenge naming the scheme.
	if err := base.AddQuery(ctx, pp); statusOf(t, err) != 401 {
		t.Fatalf("unauthenticated write = %v, want 401", err)
	}
	resp, err := http.Get(ts.URL + "/queries")
	if err != nil {
		t.Fatalf("raw get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 401 || !strings.Contains(resp.Header.Get("WWW-Authenticate"), "Bearer") {
		t.Fatalf("challenge = %d %q, want 401 with Bearer", resp.StatusCode, resp.Header.Get("WWW-Authenticate"))
	}
	// Unknown key: 401. Read-only key on a write route: 403.
	if err := base.WithAPIKey("nope").AddQuery(ctx, pp); statusOf(t, err) != 401 {
		t.Fatal("unknown key must 401")
	}
	if err := base.WithAPIKey("k-acme-ro").AddQuery(ctx, pp); statusOf(t, err) != 403 {
		t.Fatal("read-only key on POST /queries must 403")
	}
	// The write key works; the read-only key can read what it wrote.
	acme := base.WithAPIKey("k-acme")
	if err := acme.AddQuery(ctx, pp); err != nil {
		t.Fatalf("write-key register: %v", err)
	}
	list, err := base.WithAPIKey("k-acme-ro").Queries(ctx)
	if err != nil {
		t.Fatalf("read-key list: %v", err)
	}
	if len(list.Queries) != 1 || list.Queries[0].Name != "pp" {
		t.Fatalf("read-key list = %+v", list)
	}

	// Liveness, readiness and the Prometheus plane stay unauthenticated:
	// probes and scrapers don't carry tenant credentials.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d, want 200 without a key", path, resp.StatusCode)
		}
	}

	// The /tenants admin API rejects tenant keys and accepts the admin
	// key; the listing carries usage but never echoes keys.
	if _, err := acme.Tenants(ctx); statusOf(t, err) != 401 {
		t.Fatal("tenant key on /tenants must 401")
	}
	admin := base.WithAPIKey("root")
	tl, err := admin.Tenants(ctx)
	if err != nil {
		t.Fatalf("admin list tenants: %v", err)
	}
	if len(tl.Tenants) != 2 {
		t.Fatalf("tenant list = %+v, want acme and bmart", tl)
	}
	// The admin key addresses the raw roster: internal scoped names.
	al, err := admin.Queries(ctx)
	if err != nil {
		t.Fatalf("admin list queries: %v", err)
	}
	if len(al.Queries) != 1 || al.Queries[0].Name != "acme:pp" || al.Queries[0].Tenant != "acme" {
		t.Fatalf("admin query list = %+v, want internal name acme:pp", al)
	}
}

func TestTenantNamespaceIsolation(t *testing.T) {
	srv := server.New(server.Config{Tenants: twoTenantRegistry(t)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := testCtx(t)
	acme := client.New(ts.URL, nil).WithAPIKey("k-acme")
	bmart := client.New(ts.URL, nil).WithAPIKey("k-bmart")

	// acme registers "pp". To bmart that name simply does not exist:
	// not listable, not subscribable, not deletable — same 404 as a
	// name nobody owns.
	if err := acme.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 1000}); err != nil {
		t.Fatalf("acme register: %v", err)
	}
	if list, err := bmart.Queries(ctx); err != nil || len(list.Queries) != 0 {
		t.Fatalf("bmart sees foreign queries: %+v (%v)", list, err)
	}
	if _, err := bmart.Subscribe(ctx, "pp"); statusOf(t, err) != 404 {
		t.Fatal("cross-tenant subscribe must 404")
	}
	if err := bmart.RemoveQuery(ctx, "pp"); statusOf(t, err) != 404 {
		t.Fatal("cross-tenant delete must 404")
	}

	// Both namespaces can hold the same wire name at once.
	if err := bmart.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 1000}); err != nil {
		t.Fatalf("bmart register same wire name: %v", err)
	}
	list, err := acme.Queries(ctx)
	if err != nil || len(list.Queries) != 1 || list.Queries[0].Name != "pp" || list.Queries[0].Tenant != "acme" {
		t.Fatalf("acme list = %+v (%v)", list, err)
	}

	// The edge stream is shared, so both tenants' queries match the
	// same traffic — but an unfiltered subscription is scoped to the
	// caller's namespace: acme's stream only ever carries acme's
	// queries, even though bmart's "pp" matched the same pair.
	sub, err := acme.SubscribeOpts(ctx, client.SubscribeOptions{})
	if err != nil {
		t.Fatalf("acme unfiltered subscribe: %v", err)
	}
	defer sub.Close()
	if _, err := acme.Ingest(ctx, []client.Edge{edge(1, 2, "ping"), edge(2, 1, "pong")}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	m := recvMatch(t, sub)
	if m.Query != "pp" || m.Tenant != "acme" {
		t.Fatalf("match = %+v, want acme's pp under its wire name", m)
	}
	select {
	case m := <-sub.Events:
		t.Fatalf("acme's stream leaked a foreign event: %+v", m)
	case <-time.After(200 * time.Millisecond):
	}

	// A tenant's /stats is its own slice, keyed by wire names.
	stats, err := acme.TenantStats(ctx)
	if err != nil {
		t.Fatalf("acme stats: %v", err)
	}
	if got := stats.Tenant; got != "acme" {
		t.Fatalf("stats tenant = %v", got)
	}
	if _, ok := stats.Queries["pp"]; !ok || len(stats.Queries) != 1 {
		t.Fatalf("tenant stats queries = %v, want exactly pp", stats.Queries)
	}

	// Deleting its own "pp" leaves bmart's untouched.
	if err := acme.RemoveQuery(ctx, "pp"); err != nil {
		t.Fatalf("acme delete: %v", err)
	}
	if list, err := bmart.Queries(ctx); err != nil || len(list.Queries) != 1 {
		t.Fatalf("bmart lost its query to acme's delete: %+v (%v)", list, err)
	}
}

// TestStatsRejectsMetricParam: GET /stats is one typed snapshot, so a
// ?metric= selector is a bad request for admins and tenants alike, and
// its message points at the snapshot.
func TestStatsRejectsMetricParam(t *testing.T) {
	srv := server.New(server.Config{Tenants: twoTenantRegistry(t), AdminKey: "root"})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, key := range []string{"root", "k-acme"} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/stats?metric=server.last_time", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "typed snapshot") {
			t.Fatalf("?metric= as %s: %d %q, want 400 naming the typed snapshot", key, resp.StatusCode, body)
		}
	}
}

// TestTenantQuota429RoundTrip drives the full admission loop through
// the client: a rate rejection carries Retry-After and refunds the
// tokens the aborted request took; a quota rejection is a 429 without
// Retry-After; releasing capacity re-admits.
func TestTenantQuota429RoundTrip(t *testing.T) {
	reg := tenant.NewRegistry()
	if _, err := reg.Create(tenant.Spec{
		Name: "metered",
		Keys: []tenant.KeySpec{{Key: "k-m"}},
		Limits: tenant.Limits{
			// A trickle of a rate so mid-test refill is negligible: the
			// burst is the whole budget.
			EdgesPerSec:      0.5,
			EdgeBurst:        2,
			MaxQueries:       1,
			MaxSubscriptions: 1,
		},
	}); err != nil {
		t.Fatalf("create: %v", err)
	}
	srv := server.New(server.Config{Tenants: reg})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := testCtx(t)
	c := client.New(ts.URL, nil).WithAPIKey("k-m")

	if err := c.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 10000}); err != nil {
		t.Fatalf("register: %v", err)
	}
	// Query quota: the second registration is refused with a plain 429
	// — no Retry-After, because no amount of waiting frees a slot.
	err := c.AddQuery(ctx, client.QueryRequest{Name: "pp2", Text: pingPong, Window: 10000})
	var limited *client.ErrRateLimited
	if !errors.As(err, &limited) || limited.RetryAfter != 0 {
		t.Fatalf("over-quota register = %v, want ErrRateLimited without Retry-After", err)
	}
	// And the legacy APIError matching still sees the same error.
	if statusOf(t, err) != 429 {
		t.Fatalf("quota rejection status = %v", err)
	}

	// Edge budget is 2 (the burst). One edge: fine, one token left.
	if _, err := c.Ingest(ctx, []client.Edge{edge(1, 2, "ping")}); err != nil {
		t.Fatalf("first ingest: %v", err)
	}
	// A two-edge batch takes the last token at line 1, rejects at line
	// 2, and refunds — all-or-nothing, so a retry can land the same
	// batch once the bucket refills.
	_, err = c.Ingest(ctx, []client.Edge{edge(2, 1, "pong"), edge(5, 6, "ping")})
	if !errors.As(err, &limited) {
		t.Fatalf("over-rate ingest = %v, want ErrRateLimited", err)
	}
	if limited.RetryAfter < time.Second {
		t.Fatalf("Retry-After = %v, want >= 1s (whole seconds, rounded up)", limited.RetryAfter)
	}
	if !strings.Contains(limited.Message, "nothing ingested") {
		t.Fatalf("rejection message = %q, want the nothing-ingested contract", limited.Message)
	}
	// The refund left the pre-batch balance intact: a single edge is
	// admitted immediately. Without the refund the bucket would be
	// empty and this would 429.
	if _, err := c.Ingest(ctx, []client.Edge{edge(2, 1, "pong")}); err != nil {
		t.Fatalf("ingest after refund: %v (refund on abort is broken)", err)
	}
	// And now the budget really is gone.
	if _, err := c.Ingest(ctx, []client.Edge{edge(7, 8, "ping")}); !errors.As(err, &limited) {
		t.Fatalf("exhausted ingest = %v, want ErrRateLimited", err)
	}

	// Subscription quota: the second concurrent stream is refused.
	sub, err := c.Subscribe(ctx, "pp")
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()
	if _, err := c.Subscribe(ctx, "pp"); !errors.As(err, &limited) {
		t.Fatalf("second subscribe = %v, want ErrRateLimited", err)
	}

	// Rejections are visible in the tenant's own usage counters.
	stats, err := c.TenantStats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if got := stats.Usage.RejectedEdges; got < 2 {
		t.Fatalf("usage.rejected_edges = %v, want >= 2", got)
	}

	// Releasing capacity re-admits: delete the query, register again.
	if err := c.RemoveQuery(ctx, "pp"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := c.AddQuery(ctx, client.QueryRequest{Name: "pp3", Text: pingPong, Window: 10000}); err != nil {
		t.Fatalf("register after release: %v", err)
	}
}

// TestIngestEarlyAbort proves the over-quota NDJSON abort stops
// *reading*: a large body is cut off at the first rejected line, and
// the tenant's bytes-read accounting reflects the cutoff, not the
// Content-Length the request advertised.
func TestIngestEarlyAbort(t *testing.T) {
	reg := tenant.NewRegistry()
	if _, err := reg.Create(tenant.Spec{
		Name:   "capped",
		Keys:   []tenant.KeySpec{{Key: "k-c"}},
		Limits: tenant.Limits{EdgesPerSec: 0.001, EdgeBurst: 1},
	}); err != nil {
		t.Fatalf("create: %v", err)
	}
	srv := server.New(server.Config{Tenants: reg, AdminKey: "root"})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := testCtx(t)
	c := client.New(ts.URL, nil).WithAPIKey("k-c")

	// ~1.4 MiB of NDJSON: one token admits line 1, line 2 aborts.
	edges := make([]client.Edge, 20000)
	for i := range edges {
		edges[i] = edge(int64(i), int64(i+1), "padpadpadpadpadpadpadpadpadpadpadpad")
	}
	var limited *client.ErrRateLimited
	if _, err := c.Ingest(ctx, edges); !errors.As(err, &limited) {
		t.Fatalf("flood = %v, want ErrRateLimited", err)
	}
	if !strings.Contains(limited.Message, "at line 2") {
		t.Fatalf("abort line = %q, want line 2", limited.Message)
	}

	// The byte ledger is written after the handler returns; poll
	// briefly, then bound it: well under the full body, but not zero.
	admin := client.New(ts.URL, nil).WithAPIKey("root")
	var got int64
	deadline := time.Now().Add(5 * time.Second)
	for {
		tl, err := admin.Tenants(ctx)
		if err != nil {
			t.Fatalf("admin tenants: %v", err)
		}
		if got = tl.Tenants[0].Usage.IngestBytes; got > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got == 0 || got > 1<<20/2 {
		t.Fatalf("ingest bytes read = %d, want a small prefix of the ~1.4MiB body", got)
	}
}

// TestReadyzGate covers the liveness/readiness split across the whole
// lifecycle: Gate answers during boot, the server while live, and
// readiness flips off at shutdown while liveness stays on.
func TestReadyzGate(t *testing.T) {
	ctx := testCtx(t)

	// Phase 1: the gate alone — the boot window, before the Server
	// exists. Alive, not ready, and every API route refuses with a
	// Retry-After rather than hanging.
	gate := server.NewGate()
	ts := httptest.NewServer(gate)
	defer ts.Close()
	c := client.New(ts.URL, nil)
	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz during boot: %v", err)
	}
	if err := c.Ready(ctx); statusOf(t, err) != 503 {
		t.Fatalf("readyz during boot = %v, want 503", err)
	}
	resp, err := http.Get(ts.URL + "/queries")
	if err != nil {
		t.Fatalf("api during boot: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("api during boot = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Phase 2: the real handler installs and the same listener serves.
	srv := server.New(server.Config{})
	gate.Set(srv.Handler())
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("readyz after boot: %v", err)
	}
	if _, err := c.Queries(ctx); err != nil {
		t.Fatalf("api after boot: %v", err)
	}

	// Phase 3: shutdown — readiness drops first, liveness holds.
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := c.Ready(ctx); statusOf(t, err) != 503 {
		t.Fatalf("readyz after close = %v, want 503", err)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz after close: %v", err)
	}
}

// TestDefaultTenantCompat: with an anonymous (default) tenant
// configured, clients that predate tenancy — no API key — keep
// working, and the namespacing stays invisible on the wire.
func TestDefaultTenantCompat(t *testing.T) {
	reg := tenant.NewRegistry()
	if _, err := reg.Create(tenant.Spec{Name: "legacy"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := reg.SetAnonymous("legacy"); err != nil {
		t.Fatalf("set anonymous: %v", err)
	}
	srv := server.New(server.Config{Tenants: reg})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, nil) // deliberately no key
	ctx := testCtx(t)

	if err := c.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 100}); err != nil {
		t.Fatalf("anonymous register: %v", err)
	}
	list, err := c.Queries(ctx)
	if err != nil || len(list.Queries) != 1 || list.Queries[0].Name != "pp" {
		t.Fatalf("anonymous list = %+v (%v)", list, err)
	}
	sub, err := c.Subscribe(ctx, "pp")
	if err != nil {
		t.Fatalf("anonymous subscribe: %v", err)
	}
	defer sub.Close()
	if _, err := c.Ingest(ctx, []client.Edge{edge(1, 2, "ping"), edge(2, 1, "pong")}); err != nil {
		t.Fatalf("anonymous ingest: %v", err)
	}
	if m := recvMatch(t, sub); m.Query != "pp" || m.Tenant != "legacy" {
		t.Fatalf("anonymous match = %+v", m)
	}
	if err := c.RemoveQuery(ctx, "pp"); err != nil {
		t.Fatalf("anonymous remove: %v", err)
	}
}

// TestDurableTenantPersistence: a tenant created at runtime through the
// admin API — keys, limits, query ownership — survives a restart into a
// *fresh* registry, restored from the files beside the WAL.
func TestDurableTenantPersistence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	ctx := testCtx(t)
	popts := timingsubg.Durability{Dir: dir, SyncEvery: 1}

	srv1, err := server.NewDurable(server.Config{Tenants: tenant.NewRegistry(), AdminKey: "root"}, popts)
	if err != nil {
		t.Fatalf("open durable: %v", err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	admin1 := client.New(ts1.URL, nil).WithAPIKey("root")
	if _, err := admin1.CreateTenant(ctx, client.TenantSpec{
		Name:   "acme",
		Keys:   []client.TenantKey{{Key: "k-acme"}},
		Limits: client.TenantLimits{MaxQueries: 3},
	}); err != nil {
		t.Fatalf("create tenant: %v", err)
	}
	acme1 := client.New(ts1.URL, nil).WithAPIKey("k-acme")
	if err := acme1.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 1000}); err != nil {
		t.Fatalf("register: %v", err)
	}
	// Half a match lands before the crash.
	if _, err := acme1.Ingest(ctx, []client.Edge{edge(1, 2, "ping")}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	ts1.Close() // abandon without a clean Close

	// The restart gets an empty registry: everything about acme must
	// come back from disk.
	srv2, err := server.NewDurable(server.Config{Tenants: tenant.NewRegistry(), AdminKey: "root"}, popts)
	if err != nil {
		t.Fatalf("reopen durable: %v", err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	admin2 := client.New(ts2.URL, nil).WithAPIKey("root")
	tl, err := admin2.Tenants(ctx)
	if err != nil {
		t.Fatalf("tenants after restart: %v", err)
	}
	if len(tl.Tenants) != 1 || tl.Tenants[0].Name != "acme" || tl.Tenants[0].Limits.MaxQueries != 3 {
		t.Fatalf("restored tenants = %+v", tl)
	}
	if tl.Tenants[0].Usage.Queries != 1 {
		t.Fatalf("restored query ownership = %+v, want 1 owned query", tl.Tenants[0].Usage)
	}
	// The persisted key still authenticates, the query is still owned,
	// and the replayed window completes a match with the restart in the
	// middle of the pattern.
	acme2 := client.New(ts2.URL, nil).WithAPIKey("k-acme")
	list, err := acme2.Queries(ctx)
	if err != nil || len(list.Queries) != 1 || list.Queries[0].Name != "pp" || list.Queries[0].Tenant != "acme" {
		t.Fatalf("restored query list = %+v (%v)", list, err)
	}
	sub, err := acme2.Subscribe(ctx, "pp")
	if err != nil {
		t.Fatalf("subscribe after restart: %v", err)
	}
	defer sub.Close()
	if _, err := acme2.Ingest(ctx, []client.Edge{edge(2, 1, "pong")}); err != nil {
		t.Fatalf("ingest after restart: %v", err)
	}
	if m := recvMatch(t, sub); m.Query != "pp" || m.Tenant != "acme" || len(m.Edges) != 2 {
		t.Fatalf("post-restart match = %+v", m)
	}
}

// TestFairShareIsolation floods the work loop with one tenant and
// checks the other's operations still complete promptly: the scheduler
// interleaves by virtual time instead of letting the hot tenant's
// backlog form one long FIFO in front of everyone. Run under -race in
// CI, so bounds are generous.
func TestFairShareIsolation(t *testing.T) {
	reg := tenant.NewRegistry()
	for _, spec := range []tenant.Spec{
		{Name: "hot", Keys: []tenant.KeySpec{{Key: "k-hot"}}},
		{Name: "quiet", Keys: []tenant.KeySpec{{Key: "k-quiet"}}},
	} {
		if _, err := reg.Create(spec); err != nil {
			t.Fatalf("create %s: %v", spec.Name, err)
		}
	}
	srv := server.New(server.Config{Tenants: reg, QueueDepth: 64})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := testCtx(t)
	hot := client.New(ts.URL, nil).WithAPIKey("k-hot")
	quiet := client.New(ts.URL, nil).WithAPIKey("k-quiet")

	// Register a query per tenant so both sides do real matching work.
	if err := hot.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 1000}); err != nil {
		t.Fatalf("hot register: %v", err)
	}
	if err := quiet.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 1000}); err != nil {
		t.Fatalf("quiet register: %v", err)
	}

	// The flood: several producers shoveling large batches as fast as
	// the server admits them, for the whole duration of the probe.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]client.Edge, 500)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range batch {
					v := int64(g*1000 + i)
					batch[i] = edge(v, v+1, "noise")
				}
				hot.Ingest(ctx, batch) // errors fine: flood pressure is the point
			}
		}(g)
	}
	defer func() { close(stop); wg.Wait() }()

	// The probe: the quiet tenant's small ops, issued while the flood
	// runs. Each must complete well under the time the hot backlog
	// would take end to end.
	time.Sleep(100 * time.Millisecond) // let the flood build a backlog
	var worst time.Duration
	for i := 0; i < 10; i++ {
		start := time.Now()
		if _, err := quiet.Queries(ctx); err != nil {
			t.Fatalf("quiet op %d: %v", i, err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	if worst > 5*time.Second {
		t.Fatalf("quiet tenant's worst op latency = %v under flood, want fair-share isolation", worst)
	}
	t.Logf("quiet tenant worst-case latency under flood: %v", worst)
}

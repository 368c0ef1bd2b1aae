package server_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"timingsubg"
	"timingsubg/client"
	"timingsubg/internal/server"
)

var updateContract = flag.Bool("update", false, "rewrite testdata/wire_contract.golden from the current tree")

// TestWireContract pins the stats wire against a committed capture: one
// scripted scenario that lights every section of the snapshot (tenancy
// with two tenants, a sharded durable fleet, event time configured),
// recorded as (a) the JSON key paths of /stats → fleet.stats plus the
// counters that are exact functions of the script, (b) the top-level
// keys of the admin and the tenant views of /stats and (c) the # TYPE
// lines of /metrics. Key order inside JSON objects and family order in
// the exposition are not part of the contract, so both are sorted.
func TestWireContract(t *testing.T) {
	var b strings.Builder
	contractServer(t, &b)

	golden := filepath.Join("testdata", "wire_contract.golden")
	if *updateContract {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("wire contract drifted from %s (rerun with -update only for an intended wire change)\n--- got ---\n%s", golden, got)
	}
}

// contractServer runs the scripted serving scenario and records the
// /stats and /metrics sides of the contract.
func contractServer(t *testing.T, b *strings.Builder) {
	srv, err := server.NewDurable(server.Config{
		Tenants:       twoTenantRegistry(t),
		AdminKey:      "root",
		FleetWorkers:  2,
		EventTimeUnit: time.Millisecond,
	}, timingsubg.Durability{Dir: filepath.Join(t.TempDir(), "state"), SyncEvery: 1})
	if err != nil {
		t.Fatalf("open durable: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := testCtx(t)
	admin := client.New(ts.URL, nil).WithAPIKey("root")
	acme := client.New(ts.URL, nil).WithAPIKey("k-acme")
	bmart := client.New(ts.URL, nil).WithAPIKey("k-bmart")

	// acme's window holds the whole script; bmart's slides, so the
	// expiry counters move.
	if err := acme.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 100}); err != nil {
		t.Fatalf("register acme: %v", err)
	}
	if err := bmart.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 3}); err != nil {
		t.Fatalf("register bmart: %v", err)
	}
	sub, err := admin.SubscribeOpts(ctx, client.SubscribeOptions{})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()
	// Server-assigned times 1..10. Matches are delivered synchronously
	// inside the feed, so every counter is settled when Ingest returns.
	if _, err := acme.Ingest(ctx, []client.Edge{
		edge(1, 2, "ping"),
		edge(2, 1, "pong"),
		edge(9, 9, "noise"),
		edge(5, 6, "pong"),
		edge(3, 4, "ping"),
		edge(7, 8, "ping"),
		edge(4, 3, "pong"),
		edge(8, 7, "pong"),
		edge(2, 1, "pong"),
		edge(1, 2, "ping"),
	}); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	all := getStats(t, ts.URL, "root")
	fleet, ok := all["fleet.stats"].(map[string]any)
	if !ok {
		t.Fatalf("fleet.stats = %T, want an object", all["fleet.stats"])
	}
	var paths, exact []string
	walkJSON("", fleet, func(path string, v any) {
		paths = append(paths, path)
		switch path[strings.LastIndexByte(path, '.')+1:] {
		case "matches", "fed", "discarded", "join_scanned", "expiry_evicted":
			exact = append(exact, fmt.Sprintf("%s = %v", path, v))
		}
	})
	section(b, "/stats fleet.stats key paths", paths)
	section(b, "/stats exact counters", exact)
	section(b, "/stats admin top-level keys", topKeys(all))
	section(b, "/stats tenant top-level keys", topKeys(getStats(t, ts.URL, "k-acme")))

	var types []string
	for _, line := range strings.Split(scrape(t, ts.URL), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	section(b, "/metrics families", types)
}

// getStats GETs /stats with the bearer key and decodes the body
// untyped, so the capture sees the wire rather than a client type.
func getStats(t *testing.T, url, key string) map[string]any {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats as %q: status %d", key, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	return out
}

// topKeys lists a decoded object's keys.
func topKeys(obj map[string]any) []string {
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	return keys
}

// walkJSON calls fn for every leaf of a decoded JSON object, with its
// dotted key path. Arrays are leaves.
func walkJSON(prefix string, obj map[string]any, fn func(path string, v any)) {
	for k, v := range obj {
		path := prefix + k
		if child, ok := v.(map[string]any); ok {
			walkJSON(path+".", child, fn)
		} else {
			fn(path, v)
		}
	}
}

// section appends one titled, sorted block to the capture.
func section(b *strings.Builder, title string, lines []string) {
	sort.Strings(lines)
	fmt.Fprintf(b, "## %s\n%s\n\n", title, strings.Join(lines, "\n"))
}

package server_test

import (
	"flag"
	"fmt"
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
// counters that are exact functions of the script, (b) the # TYPE lines
// of /metrics and (c) the gauge names RegisterMetrics registers for each
// engine composition. Key order inside JSON objects and family order in
// the exposition are not part of the contract, so both are sorted.
func TestWireContract(t *testing.T) {
	var b strings.Builder
	contractServer(t, &b)
	contractRegistry(t, &b)

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

	all, err := admin.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
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

	var types []string
	for _, line := range strings.Split(scrape(t, ts.URL), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	section(b, "/metrics families", types)
}

// contractRegistry records the gauge names RegisterMetrics derives from
// each engine composition's snapshot.
func contractRegistry(t *testing.T, b *strings.Builder) {
	spec, err := server.ParseQueryRequest(client.QueryRequest{Name: "pp", Text: pingPong, Window: 100}, timingsubg.NewLabels())
	if err != nil {
		t.Fatal(err)
	}
	single := timingsubg.Config{Query: spec.Query, Window: 100}
	adaptive, durable := single, single
	adaptive.Adaptive = &timingsubg.Adaptivity{}
	durable.Durable = &timingsubg.Durability{Dir: t.TempDir()}
	for _, c := range []struct {
		name string
		cfg  timingsubg.Config
	}{
		{"single", single},
		{"adaptive", adaptive},
		{"durable", durable},
		{"fleet", timingsubg.Config{Queries: []timingsubg.QuerySpec{spec}}},
	} {
		eng, err := timingsubg.Open(c.cfg)
		if err != nil {
			t.Fatalf("open %s: %v", c.name, err)
		}
		reg := timingsubg.NewMetricsRegistry()
		if err := timingsubg.RegisterMetrics(reg, "e", eng); err != nil {
			t.Fatalf("register %s: %v", c.name, err)
		}
		section(b, "RegisterMetrics "+c.name, reg.Names())
		if err := eng.Close(); err != nil {
			t.Fatalf("close %s: %v", c.name, err)
		}
	}
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

package server_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"timingsubg/client"
	"timingsubg/internal/server"
)

// scrape GETs /metrics and returns the exposition body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("scrape content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read scrape body: %v", err)
	}
	return string(body)
}

// sampleValue extracts one sample's value from the exposition, by its
// full series name (including labels).
func sampleValue(t *testing.T, out, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(line[len(series)+1:], 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in exposition:\n%s", series, out)
	return 0
}

// TestMetricsExposition is the golden-format test of GET /metrics:
// the stage histograms are present with monotone cumulative buckets,
// `_count` equals the +Inf bucket, the per-query detection histogram is
// attributed, and the counter plane agrees with /stats accounting.
func TestMetricsExposition(t *testing.T) {
	srv := server.New(server.Config{EventTimeUnit: time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, nil)
	ctx := testCtx(t)

	if err := c.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 100}); err != nil {
		t.Fatalf("register: %v", err)
	}
	sub, err := c.Subscribe(ctx, "pp")
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()
	if _, err := c.Ingest(ctx, []client.Edge{
		edge(1, 2, "ping"),
		edge(2, 1, "pong"), // completes a match
	}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	recvMatch(t, sub)

	out := scrape(t, ts.URL)

	// Counters agree with what was ingested and matched.
	if v := sampleValue(t, out, "timingsubg_ingested_edges_total"); v != 2 {
		t.Fatalf("ingested_edges_total = %v, want 2", v)
	}
	if v := sampleValue(t, out, "timingsubg_matches_total"); v != 1 {
		t.Fatalf("matches_total = %v, want 1", v)
	}
	if v := sampleValue(t, out, `timingsubg_query_matches_total{query="pp"}`); v != 1 {
		t.Fatalf("per-query matches = %v, want 1", v)
	}
	if v := sampleValue(t, out, `timingsubg_query_delivered_total{query="pp"}`); v < 1 {
		t.Fatalf("per-query delivered = %v, want >= 1", v)
	}

	// Every stage series is exposed; the hot ones carry samples.
	for _, stage := range []string{
		"ingest", "wal_append", "wal_sync", "wal_group_commit",
		"shard_queue_wait", "shard_exec", "join", "expiry", "dispatch",
		"detection", "event_time_lag",
	} {
		label := `stage="` + stage + `"`
		if !strings.Contains(out, "timingsubg_stage_latency_seconds_bucket{"+label) {
			t.Fatalf("stage %s missing from exposition:\n%s", stage, out)
		}
		want := uint64(0)
		switch stage {
		case "ingest":
			want = 2
		// join is sampled (first Process call always observes), so two
		// fed edges yield one sample.
		case "join", "dispatch", "detection", "event_time_lag":
			want = 1
		}
		checkServerHistogram(t, out, "timingsubg_stage_latency_seconds", label, want)
	}

	// Per-query detection latency is attributed by name.
	checkServerHistogram(t, out, "timingsubg_query_detection_latency_seconds", `query="pp"`, 1)

	// Event time is configured, so the watermark gauge is live.
	if v := sampleValue(t, out, "timingsubg_watermark_lag_seconds"); v <= 0 {
		t.Fatalf("watermark_lag_seconds = %v, want > 0 (timestamps near the epoch)", v)
	}
}

// checkServerHistogram verifies one exposed histogram series: buckets
// non-decreasing, +Inf == _count, _sum present, and — when want > 0 —
// the exact sample count.
func checkServerHistogram(t *testing.T, out, name, label string, want uint64) {
	t.Helper()
	var last, count uint64
	var inf, sawCount, sawSum bool
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, name+"_bucket{"+label+","):
			v := uint64(parseLineValue(t, line))
			if v < last {
				t.Fatalf("buckets must be non-decreasing: %q after %d", line, last)
			}
			last = v
			if strings.Contains(line, `le="+Inf"`) {
				inf = true
			}
		case strings.HasPrefix(line, name+"_count{"+label+"}"):
			sawCount = true
			count = uint64(parseLineValue(t, line))
		case strings.HasPrefix(line, name+"_sum{"+label+"}"):
			sawSum = true
		}
	}
	if !inf || !sawCount || !sawSum {
		t.Fatalf("series %s{%s}: inf=%v count=%v sum=%v\n%s", name, label, inf, sawCount, sawSum, out)
	}
	if last != count {
		t.Fatalf("series %s{%s}: +Inf bucket %d != _count %d", name, label, last, count)
	}
	if count != want {
		t.Fatalf("series %s{%s}: count = %d, want %d", name, label, count, want)
	}
}

func parseLineValue(t *testing.T, line string) float64 {
	t.Helper()
	i := strings.LastIndexByte(line, ' ')
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		t.Fatalf("bad sample value in %q: %v", line, err)
	}
	return v
}

// TestMetricsScrapeWhileIngesting hammers GET /metrics concurrently
// with ingest on a sharded fleet — the contract that a scrape is safe
// against feeding (and, under -race, that the histogram plane is
// data-race-free).
func TestMetricsScrapeWhileIngesting(t *testing.T) {
	srv := server.New(server.Config{FleetWorkers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, nil)
	ctx := testCtx(t)

	for _, name := range []string{"pp1", "pp2", "pp3"} {
		if err := c.AddQuery(ctx, client.QueryRequest{Name: name, Text: pingPong, Window: 50}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			batch := []client.Edge{
				edge(int64(i), int64(i)+1, "ping"),
				edge(int64(i)+1, int64(i), "pong"),
			}
			if _, err := c.Ingest(ctx, batch); err != nil {
				t.Errorf("ingest round %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			out := scrape(t, ts.URL)
			// Spot-check internal consistency on every concurrent scrape.
			checkServerHistogram(t, out, "timingsubg_stage_latency_seconds", `stage="shard_exec"`,
				uint64(parseLineValue(t, findLine(t, out, `timingsubg_stage_latency_seconds_count{stage="shard_exec"}`))))
		}
	}()
	wg.Wait()

	out := scrape(t, ts.URL)
	if v := sampleValue(t, out, "timingsubg_matches_total"); v != rounds*3 {
		t.Fatalf("matches_total = %v, want %d", v, rounds*3)
	}
	checkServerHistogram(t, out, "timingsubg_stage_latency_seconds", `stage="ingest"`, rounds)
	// Sharded fan-out: 2 shards per batch round.
	checkServerHistogram(t, out, "timingsubg_stage_latency_seconds", `stage="shard_exec"`, rounds*2)
}

func findLine(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			return line
		}
	}
	t.Fatalf("series %q not found", prefix)
	return ""
}

// TestMetricsFamiliesContiguous: the text format requires all samples
// of a family to form one group under a single # TYPE line, so with two
// queries and two tenants every per-query and per-tenant family must
// list both label values back to back rather than once per entity.
func TestMetricsFamiliesContiguous(t *testing.T) {
	srv := server.New(server.Config{Tenants: twoTenantRegistry(t), AdminKey: "root"})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := testCtx(t)
	for _, key := range []string{"k-acme", "k-bmart"} {
		c := client.New(ts.URL, nil).WithAPIKey(key)
		if err := c.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 100}); err != nil {
			t.Fatalf("register as %s: %v", key, err)
		}
	}

	out := scrape(t, ts.URL)
	closed := map[string]bool{}
	current := ""
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var family string
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, _, _ = strings.Cut(rest, " ")
			if family == current {
				t.Fatalf("family %s has a second # TYPE line", family)
			}
		} else {
			family = line[:strings.IndexAny(line, "{ ")]
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if strings.TrimSuffix(family, suffix) == current {
					family = current
				}
			}
		}
		if family == current {
			continue
		}
		if closed[family] {
			t.Fatalf("family %s resumes at %q after other families intervened:\n%s", family, line, out)
		}
		closed[current] = true
		current = family
	}
	for _, series := range []string{
		`timingsubg_query_matches_total{query="acme:pp"}`, `timingsubg_query_matches_total{query="bmart:pp"}`,
		`timingsubg_tenant_queries{tenant="acme"}`, `timingsubg_tenant_queries{tenant="bmart"}`,
	} {
		sampleValue(t, out, series)
	}
}

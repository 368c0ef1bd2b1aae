package timingsubg

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func fetchMetrics(t *testing.T, reg *MetricsRegistry) map[string]any {
	t.Helper()
	srv := httptest.NewServer(MetricsHandler(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	return got
}

// openRegistered opens cfg and registers its gauges under prefix in a
// fresh registry.
func openRegistered(t *testing.T, cfg Config, prefix string) (Engine, *MetricsRegistry) {
	t.Helper()
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	if err := RegisterMetrics(reg, prefix, eng); err != nil {
		t.Fatal(err)
	}
	return eng, reg
}

func TestSearcherMetrics(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	s, reg := openRegistered(t, Config{Query: q, Window: 50}, "q")
	feedEach(t, s, persistTestStream(labels, 200, 31))
	s.Close()

	got := fetchMetrics(t, reg)
	if got["q.matches"] == nil || got["q.window_edges"] == nil {
		t.Fatalf("missing metrics: %v", got)
	}
	if want := s.Stats().Matches; got["q.matches"].(float64) != float64(want) {
		t.Fatalf("matches metric %v != %d", got["q.matches"], want)
	}
	if got["q.decomposition_k"].(float64) < 1 {
		t.Fatalf("bad k: %v", got["q.decomposition_k"])
	}
}

func TestMultiSearcherMetrics(t *testing.T) {
	labels := NewLabels()
	specs := []QuerySpec{
		{Name: "chain", Query: persistTestQuery(t, labels), Options: Options{Window: 40}},
	}
	ms, reg := openRegistered(t, Config{Queries: specs, Routed: true}, "fleet")
	feedEach(t, ms, persistTestStream(labels, 100, 32))
	ms.Close()
	got := fetchMetrics(t, reg)
	if got["fleet.chain.matches"] == nil {
		t.Fatalf("missing per-query metric: %v", got)
	}
	if got["fleet.routed_fraction"] == nil {
		t.Fatalf("missing fleet metric: %v", got)
	}
}

func TestPersistentSearcherMetrics(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	ps, reg := openRegistered(t, Config{Query: q, Window: 40, Durable: &Durability{Dir: t.TempDir()}}, "durable")
	feedEach(t, ps, persistTestStream(labels, 50, 33))
	got := fetchMetrics(t, reg)
	if got["durable.wal_seq"].(float64) != 50 {
		t.Fatalf("wal_seq = %v, want 50", got["durable.wal_seq"])
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveSearcherMetrics(t *testing.T) {
	q := starQuery(t)
	a, reg := openRegistered(t, Config{Query: q, Window: 100, Adaptive: &Adaptivity{}}, "adaptive")
	defer a.Close()
	got := fetchMetrics(t, reg)
	if got["adaptive.reoptimizations"].(float64) != 0 {
		t.Fatalf("reoptimizations = %v", got["adaptive.reoptimizations"])
	}
}

func TestDuplicatePrefixRejected(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	s, reg := openRegistered(t, Config{Query: q, Window: 10}, "q")
	defer s.Close()
	if err := RegisterMetrics(reg, "q", s); err == nil {
		t.Fatal("duplicate prefix accepted")
	}
}

func TestPersistentMultiMetrics(t *testing.T) {
	labels := NewLabels()
	specs := fleetSpecs(t, labels, 40)
	pm, reg := openRegistered(t, Config{Queries: specs, Durable: &Durability{Dir: t.TempDir()}}, "fleet")
	feedEach(t, pm, persistTestStream(labels, 80, 81))
	got := fetchMetrics(t, reg)
	if got["fleet.wal_seq"].(float64) != 80 {
		t.Fatalf("wal_seq = %v, want 80", got["fleet.wal_seq"])
	}
	if got["fleet.chain3.matches"] == nil {
		t.Fatalf("missing per-query metric: %v", got)
	}
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}
}

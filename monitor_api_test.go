package timingsubg

import (
	"encoding/json"
	"testing"
)

// wireStats is st as a scraper decodes it: the JSON object a -metrics
// endpoint or GET /stats serves, keyed by wire name.
func wireStats(t *testing.T, st Stats) map[string]any {
	t.Helper()
	buf, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	return got
}

func openStats(t *testing.T, cfg Config) Engine {
	t.Helper()
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestSearcherMetrics(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	s := openStats(t, Config{Query: q, Window: 50})
	feedEach(t, s, persistTestStream(labels, 200, 31))
	s.Close()

	st := s.Stats()
	got := wireStats(t, st)
	if got["matches"] == nil || got["in_window"] == nil {
		t.Fatalf("missing counters: %v", got)
	}
	if got["matches"].(float64) != float64(st.Matches) || st.Matches == 0 {
		t.Fatalf("matches on the wire %v, snapshot %d", got["matches"], st.Matches)
	}
	if got["k"].(float64) < 1 {
		t.Fatalf("bad k: %v", got["k"])
	}
}

func TestMultiSearcherMetrics(t *testing.T) {
	labels := NewLabels()
	specs := []QuerySpec{
		{Name: "chain", Query: persistTestQuery(t, labels), Options: Options{Window: 40}},
	}
	ms := openStats(t, Config{Queries: specs, Routed: true})
	feedEach(t, ms, persistTestStream(labels, 100, 32))
	ms.Close()
	got := wireStats(t, ms.Stats())
	queries, _ := got["queries"].(map[string]any)
	if chain, _ := queries["chain"].(map[string]any); chain["matches"] == nil {
		t.Fatalf("missing per-query counters: %v", got)
	}
	if got["routed_fraction"] == nil {
		t.Fatalf("missing fleet counter: %v", got)
	}
}

func TestPersistentSearcherMetrics(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	ps := openStats(t, Config{Query: q, Window: 40, Durable: &Durability{Dir: t.TempDir()}})
	feedEach(t, ps, persistTestStream(labels, 50, 33))
	if st := ps.Stats(); st.WALSeq != 50 || !st.Durable {
		t.Fatalf("wal_seq = %d (durable %v), want 50", st.WALSeq, st.Durable)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveSearcherMetrics(t *testing.T) {
	q := starQuery(t)
	a := openStats(t, Config{Query: q, Window: 100, Adaptive: &Adaptivity{}})
	defer a.Close()
	if st := a.Stats(); st.Reoptimizations != 0 || !st.Adaptive {
		t.Fatalf("reoptimizations = %d (adaptive %v)", st.Reoptimizations, st.Adaptive)
	}
}

func TestPersistentMultiMetrics(t *testing.T) {
	labels := NewLabels()
	specs := fleetSpecs(t, labels, 40)
	pm := openStats(t, Config{Queries: specs, Durable: &Durability{Dir: t.TempDir()}})
	feedEach(t, pm, persistTestStream(labels, 80, 81))
	st := pm.Stats()
	if st.WALSeq != 80 {
		t.Fatalf("wal_seq = %d, want 80", st.WALSeq)
	}
	if _, ok := st.Queries["chain3"]; !ok {
		t.Fatalf("missing per-query snapshot: %v", st.Queries)
	}
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}
}

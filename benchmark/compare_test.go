package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// writeSet writes a one-workload result set with the given run verdicts.
func writeSet(t *testing.T, s *spec, failed int64, withCounts bool) string {
	t.Helper()
	w := s.Workloads[0].Name
	var set resultSet
	for seed := int64(1); seed <= 4; seed++ {
		r := &result{Workload: w, Seed: seed, Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metric{}}
		for _, m := range s.EndToEnd {
			r.Metrics[m.Name] = metric{Value: 10 + float64(seed)/100, Unit: m.Unit}
		}
		set.Runs = append(set.Runs, r)
	}
	if withCounts {
		r := &result{Workload: w, Seed: 1, Trace: true, Correct: true, Attempted: 100, Metrics: map[string]metric{}}
		for _, name := range exactCounts {
			r.Metrics[name] = metric{Value: 1}
		}
		set.Runs = append(set.Runs, r)
	}
	data, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "set.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareVerdicts: equal sets compare as ok; a set with a failed run
// or without the exact counts does not, whatever its timings say.
func TestCompareVerdicts(t *testing.T) {
	d, err := locate()
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(d)
	if err != nil {
		t.Fatal(err)
	}
	s.Workloads = s.Workloads[:1]
	good := writeSet(t, s, 0, true)
	if code := compareSets(s, good, good); code != 0 {
		t.Errorf("identical sets: exit %d, want 0", code)
	}
	if code := compareSets(s, good, writeSet(t, s, 3, true)); code == 0 {
		t.Error("a set with failed runs compared as ok")
	}
	if code := compareSets(s, good, writeSet(t, s, 0, false)); code == 0 {
		t.Error("a set without the exact counts compared as ok")
	}
}

// TestBrokenMeasurementFails: a phase that measured nothing must fail the
// run, not report the best possible value.
func TestBrokenMeasurementFails(t *testing.T) {
	if v := quantile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("quantile of no samples = %v, want NaN", v)
	}
	res := &result{Metrics: map[string]metric{}}
	res.set("detect_p50_ms", quantile(nil, 0.5), "ms")
	res.set("cpu_us_per_edge", 1/math.Inf(1)*math.Inf(1), "us")
	if err := res.finish(); err == nil || res.Correct {
		t.Errorf("finish() = %v, correct %v: a NaN metric must fail the run", err, res.Correct)
	}
}

package main

import (
	"math"
	"regexp"
	"testing"
)

// TestSmoke runs 1/200-scale versions of all five workloads through a
// real spawned tsserved, measured and traced, and holds them to the
// contract: every metric BENCHMARK.json names is emitted exactly once
// with its unit, is finite and well named, and nothing failed.
func TestSmoke(t *testing.T) {
	d, err := locate()
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	bin, err := buildServer(d)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(runCleanups)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, s.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			res, err := runOnce(runConfig{w: w, seed: 1, seconds: float64(s.RunSeconds) / 200, trace: trace, setups: 1, d: d, bin: bin})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if err := s.conform(res); err != nil {
				t.Error(err)
			}
			t.Logf("%s trace=%v: %s", w.name, trace, res.Notes[len(res.Notes)-1])
			for n, m := range res.Metrics {
				if !name.MatchString(n) || len(n) > 64 {
					t.Errorf("%s: bad metric name %q", w.name, n)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, n, m.Value)
				}
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d failed %d correct %v\n%v", w.name, trace, res.Attempted, res.Failed, res.Correct, res.Notes)
			}
		}
	}
}

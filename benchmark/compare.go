package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// exactCounts are program counts that must repeat bit for bit between
// two result sets taken on the same code and seed.
var exactCounts = []string{
	"core.matches_per_edge", "core.join_scanned_per_edge", "core.discarded_share", "wal.bytes_per_edge",
}

func loadSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// values collects one metric's values over a set's runs of a workload.
func (set *resultSet) values(workload, name string, trace bool) []float64 {
	var v []float64
	for _, r := range set.Runs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
	}
	sort.Float64s(v)
	return v
}

// spread is the distance between the first and third quartile as a
// share of the median, with quartiles as Python's
// statistics.quantiles(v, n=4) gives them (exclusive method).
func spread(sorted []float64) float64 {
	n := len(sorted)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return (q(3) - q(1)) / median(sorted)
}

// invalid lists what disqualifies a set's runs of one workload from a
// comparison: a run that failed its output check has no meaningful
// timings.
func (set *resultSet) invalid(workload string) []string {
	var why []string
	for _, r := range set.Runs {
		if r.Workload == workload && (!r.Correct || r.Failed > 0) {
			why = append(why, fmt.Sprintf("seed %d trace %v: correct %v, failed %d of %d", r.Seed, r.Trace, r.Correct, r.Failed, r.Attempted))
		}
	}
	return why
}

// compareSets prints, per workload × end-to-end metric, both medians,
// the relative change, the bound and a verdict, and returns 1 if any
// verdict is "worse", "missing" or "invalid" (a run of the workload
// failed its output check) or an exact count differs or is missing.
func compareSets(s *spec, pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := loadSet(pathB)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("A = %s (%s, %s)\nB = %s (%s, %s)\n", pathA, a.Header.Commit, a.Header.When, pathB, b.Header.Commit, b.Header.When)
	fmt.Printf("%-13s %-16s %13s %13s %9s %7s %7s  %s\n", "workload", "metric", "median A", "median B", "change", "spread", "bound", "verdict")
	code := 0
	for _, w := range s.Workloads {
		bad := append(a.invalid(w.Name), b.invalid(w.Name)...)
		for _, why := range bad {
			fmt.Printf("%-13s invalid: %s\n", w.Name, why)
		}
		for _, m := range s.EndToEnd {
			va, vb := a.values(w.Name, m.Name, false), b.values(w.Name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-13s %-16s %13s %13s %9s %7s %7.2f  missing\n", w.Name, m.Name, "-", "-", "-", "-", m.Bound)
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			// change > 0 means B is worse than A.
			change := (mb - ma) / ma
			if m.Better == "higher" {
				change = -change
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case len(bad) > 0:
				verdict = "invalid"
				code = 1
			case sp > m.Bound:
				verdict = "unresolved (spread > bound)"
			case change > m.Bound:
				verdict = "worse"
				code = 1
			}
			fmt.Printf("%-13s %-16s %13.6g %13.6g %+8.1f%% %6.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, ma, mb, change*100, sp*100, m.Bound*100, verdict)
		}
	}
	fmt.Println("exact counts (traced runs):")
	for _, w := range s.Workloads {
		for _, name := range exactCounts {
			va, vb := a.values(w.Name, name, true), b.values(w.Name, name, true)
			verdict := "identical"
			if len(va) == 0 || len(vb) == 0 {
				verdict = "missing"
				code = 1
			} else if va[0] != vb[0] {
				verdict = "DIFFERENT"
				code = 1
			}
			fmt.Printf("%-13s %-28s %-18v %-18v %s\n", w.Name, name, first(va), first(vb), verdict)
		}
	}
	return code
}

func first(v []float64) any {
	if len(v) == 0 {
		return "-"
	}
	return v[0]
}

package main

import (
	"math"
	"sort"
)

func abs(n int64) int64 {
	if n < 0 {
		return -n
	}
	return n
}

// quantile reads the q-quantile off sorted values (nearest rank). No
// values have no quantile: NaN, so that a phase that measured nothing
// does not read as the best possible latency.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cv is the coefficient of variation: standard deviation over mean.
func cv(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	var sum, sq float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	for _, x := range v {
		sq += (x - mean) * (x - mean)
	}
	return math.Sqrt(sq/float64(len(v)-1)) / mean
}

// skew is max over mean: 1 when every shard was equally busy, 0 (not
// applicable) on a fleet without shards.
func skew(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum, top int64
	for _, x := range v {
		sum += x
		top = max(top, x)
	}
	return float64(top) * float64(len(v)) / float64(sum)
}

package bench

import (
	"time"

	"timingsubg/internal/graph"
)

// RunResult is the measurement of one (method, query, stream) run.
type RunResult struct {
	Throughput float64 // edges handled per second (inserts; expiry included in cost)
	AvgSpace   int64   // average resident bytes sampled across the run
	Matches    int64   // matches reported
	Elapsed    time.Duration
	// Truncated is set when a time budget stopped the run early; the
	// throughput is then measured over the edges actually processed.
	Truncated bool
}

// spaceSamples is how many space probes a run takes.
const spaceSamples = 16

// Run drives matcher over the edges with the given sliding window and
// measures throughput and average space (the paper's metrics, Section
// VII-C: throughput in edges/second, space as the per-window average).
func Run(m Matcher, edges []graph.Edge, window graph.Timestamp) RunResult {
	return RunBudget(m, edges, window, 0)
}

// RunBudget is Run with a wall-clock budget (0 = unlimited). A cell that
// exceeds the budget stops early with Truncated set; per-edge throughput
// stays meaningful because it is computed over the processed prefix.
// Figure sweeps print a note for truncated cells — bounded cells must
// never masquerade as full measurements.
func RunBudget(m Matcher, edges []graph.Edge, window graph.Timestamp, budget time.Duration) RunResult {
	st := graph.NewStream(window)
	every := len(edges) / spaceSamples
	if every == 0 {
		every = 1
	}
	var spaceSum int64
	var samples int64
	processed := 0
	truncated := false
	start := time.Now()
	for i, e := range edges {
		stored, expired, err := st.Push(e)
		if err != nil {
			panic(err) // generators produce strictly increasing timestamps
		}
		m.Process(stored, expired)
		processed++
		if (i+1)%every == 0 {
			spaceSum += m.SpaceBytes()
			samples++
		}
		if budget > 0 && i%256 == 255 && time.Since(start) > budget {
			truncated = true
			break
		}
	}
	elapsed := time.Since(start)
	if samples == 0 {
		spaceSum, samples = m.SpaceBytes(), 1
	}
	return RunResult{
		Throughput: float64(processed) / elapsed.Seconds(),
		AvgSpace:   spaceSum / samples,
		Matches:    m.MatchCount(),
		Elapsed:    elapsed,
		Truncated:  truncated,
	}
}

package main

import (
	"fmt"
	"time"

	"timingsubg/internal/core"
	"timingsubg/internal/datagen"
	"timingsubg/internal/graph"
	"timingsubg/internal/querygen"
)

// vetSeeds prints, for a range of candidate querygen seeds and each
// distinct (size, order) the workload uses, what a serial core.Engine
// does with the query over a stream the query was NOT extracted from
// (seed vetStreamSeed): matches per edge, stored partial matches scanned
// per edge, and edges per second. The workload
// definitions in workloads.go were chosen from this table against the
// targets in README.md and then frozen; it is kept so a redefinition
// of the benchmark can repeat the vetting.
func vetSeeds(w *workload) int {
	const candidates, vetEdges, vetStreamSeed = 40, 60000, 2
	type shape struct {
		size  int
		order querygen.OrderKind
	}
	seen := map[shape]bool{}
	labels := graph.NewLabels()
	sample := datagen.New(w.dataset, labels, datagen.Config{Vertices: w.vertices, Seed: querySampleSeed}).Take(int(w.window))
	gen := datagen.New(w.dataset, labels, datagen.Config{Vertices: w.vertices, Seed: vetStreamSeed})
	edges := gen.Take(vetEdges)
	for i := range edges {
		edges[i].Time = w.slotTime(i)
	}
	fmt.Printf("%-5s %-6s %-5s %4s %14s %16s %12s\n", "size", "order", "seed", "k", "matches/edge", "scanned/edge", "edges/s")
	for _, spec := range w.queries {
		sh := shape{spec.size, spec.order}
		if seen[sh] {
			continue
		}
		seen[sh] = true
		for seed := int64(1); seed <= candidates; seed++ {
			q, _, err := querygen.Generate(sample, querygen.Config{Size: sh.size, Order: sh.order, Seed: seed})
			if err != nil {
				continue
			}
			eng := core.New(q, core.Config{})
			st := graph.NewStream(graph.Timestamp(w.window))
			start := time.Now()
			fed := 0
			for _, e := range edges {
				stored, expired, err := st.Push(e)
				if err != nil {
					fmt.Println(err)
					return 1
				}
				eng.ProcessBatch(stored, expired)
				fed++
				// A query this slow is out of range whatever its counts.
				if fed%20 == 0 && (time.Since(start) > time.Second || eng.PartialMatchCount() > 1e6) {
					break
				}
			}
			el := time.Since(start).Seconds()
			s := eng.Stats()
			fmt.Printf("%-5d %-6d %-5d %4d %14.4f %16.2f %12.0f\n", sh.size, sh.order, seed, eng.K(),
				float64(s.Matches.Load())/float64(fed), float64(s.JoinScanned.Load())/float64(fed), float64(fed)/el)
		}
	}
	return 0
}

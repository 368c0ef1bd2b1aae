// Command recovery demonstrates durable continuous search: an engine
// opened with Config.Durable write-ahead-logs every edge and
// checkpoints its window state, so a crashed monitor restarts exactly
// where it left off. The demo runs a fraud-style chain query over a
// synthetic transaction stream, "crashes" halfway (abandoning the
// engine without Close), reopens the same directory, and shows that
//
//   - the recovered engine resumes with the same window and counters,
//   - no checkpointed match is re-reported,
//   - the total match set equals an uninterrupted run.
//
// The durable engine also composes Adaptivity, and the totals still
// agree with the plain run.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"timingsubg"
)

func buildQuery(labels *timingsubg.Labels) *timingsubg.Query {
	// criminal →(credit) merchant →(payout) middleman →(transfer) criminal
	b := timingsubg.NewQueryBuilder()
	crim := b.AddVertex(labels.Intern("account"))
	merch := b.AddVertex(labels.Intern("merchant"))
	mid := b.AddVertex(labels.Intern("account"))
	e1 := b.AddEdge(crim, merch)
	e2 := b.AddEdge(merch, mid)
	e3 := b.AddEdge(mid, crim)
	b.Before(e1, e2)
	b.Before(e2, e3)
	q, err := b.Build()
	if err != nil {
		panic(err)
	}
	return q
}

func stream(labels *timingsubg.Labels, n int) []timingsubg.Edge {
	rng := rand.New(rand.NewSource(11))
	acct := labels.Intern("account")
	merch := labels.Intern("merchant")
	var out []timingsubg.Edge
	for i := 0; i < n; i++ {
		var e timingsubg.Edge
		switch rng.Intn(3) {
		case 0: // credit pay: account → merchant
			e = timingsubg.Edge{From: timingsubg.VertexID(rng.Intn(20)), To: timingsubg.VertexID(100 + rng.Intn(5)),
				FromLabel: acct, ToLabel: merch}
		case 1: // payout: merchant → account
			e = timingsubg.Edge{From: timingsubg.VertexID(100 + rng.Intn(5)), To: timingsubg.VertexID(rng.Intn(20)),
				FromLabel: merch, ToLabel: acct}
		default: // transfer: account → account
			e = timingsubg.Edge{From: timingsubg.VertexID(rng.Intn(20)), To: timingsubg.VertexID(rng.Intn(20)),
				FromLabel: acct, ToLabel: acct}
		}
		e.Time = timingsubg.Timestamp(i + 1)
		out = append(out, e)
	}
	return out
}

func main() {
	dir, err := os.MkdirTemp("", "timingsubg-recovery-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	labels := timingsubg.NewLabels()
	q := buildQuery(labels)
	edges := stream(labels, 600)
	const window = 80

	cfg := func(tag string, count *int) timingsubg.Config {
		return timingsubg.Config{
			Query:  q,
			Window: window,
			OnMatch: func(_ string, m *timingsubg.Match) {
				*count++
				if *count <= 3 {
					fmt.Printf("  [%s] match: %s\n", tag, m)
				}
			},
			// Adaptive + durable: orthogonal options of the same Open.
			Adaptive: &timingsubg.Adaptivity{ReoptimizeEvery: 64, MinGain: 1.1},
			Durable:  &timingsubg.Durability{Dir: dir, CheckpointEvery: 100},
		}
	}

	// Phase 1: run the first half, then crash (no Close, no final
	// checkpoint).
	var live1 int
	eng, err := timingsubg.Open(cfg("run1", &live1))
	if err != nil {
		panic(err)
	}
	for _, e := range edges[:310] {
		if _, err := eng.Feed(e); err != nil {
			panic(err)
		}
	}
	st1 := eng.Stats()
	fmt.Printf("run 1: fed 310 edges, %d matches reported, window holds %d edges\n",
		st1.Matches, st1.InWindow)
	fmt.Println("  ... simulated crash (no clean shutdown) ...")
	// Deliberately skip eng.Close(): state survives only through the WAL
	// and the checkpoints already written.

	// Phase 2: reopen the same directory. Recovery rebuilds the
	// checkpointed window silently and replays the WAL suffix.
	var live2 int
	eng2, err := timingsubg.Open(cfg("run2", &live2))
	if err != nil {
		panic(err)
	}
	st2 := eng2.Stats()
	fmt.Printf("run 2: recovered — replayed %d WAL edges, window holds %d edges, durable matches %d\n",
		st2.Replayed, st2.InWindow, st2.Matches)
	// The second half rides the batch fast path: one WAL write + sync.
	if _, err := eng2.FeedBatch(edges[310:]); err != nil {
		panic(err)
	}
	total := eng2.Stats().Matches
	if err := eng2.Close(); err != nil {
		panic(err)
	}

	// Reference: one uninterrupted, in-memory, non-adaptive run.
	s, err := timingsubg.Open(timingsubg.Config{Query: q, Window: window})
	if err != nil {
		panic(err)
	}
	if _, err := s.FeedBatch(edges); err != nil {
		panic(err)
	}
	ref := s.Stats().Matches
	s.Close()

	fmt.Printf("durable total across crash: %d matches; uninterrupted run: %d matches\n", total, ref)
	if total == ref {
		fmt.Println("recovery is exact: totals agree")
	} else {
		fmt.Println("MISMATCH — recovery bug")
		os.Exit(1)
	}
}

package timingsubg_test

import (
	"fmt"

	"timingsubg"
)

// Example demonstrates the minimal end-to-end flow: build a two-edge
// query with one timing constraint, feed four edges, observe the single
// match that satisfies both structure and order.
func Example() {
	labels := timingsubg.NewLabels()
	ip := labels.Intern("IP")
	tcp := labels.Intern("tcp")

	// victim →tcp→ c&c (registration) must precede c&c →tcp→ victim
	// (command).
	b := timingsubg.NewQueryBuilder()
	victim := b.AddVertex(ip)
	cc := b.AddVertex(ip)
	reg := b.AddLabeledEdge(victim, cc, tcp)
	cmd := b.AddLabeledEdge(cc, victim, tcp)
	b.Before(reg, cmd)
	q, err := b.Build()
	if err != nil {
		panic(err)
	}

	s, err := timingsubg.Open(timingsubg.Config{
		Query:  q,
		Window: 100,
		OnMatch: func(_ string, m *timingsubg.Match) {
			fmt.Printf("victim=%d c&c=%d (reg@%d cmd@%d)\n",
				m.Vtx[victim], m.Vtx[cc], m.Edges[reg].Time, m.Edges[cmd].Time)
		},
	})
	if err != nil {
		panic(err)
	}

	// Both hosts carry the "IP" label, so host 2's t=2 message followed
	// by host 1's t=3 reply is itself a (role-swapped) registration +
	// command pair — the engine reports both assignments.
	edges := []timingsubg.Edge{
		{From: 8, To: 9, FromLabel: ip, ToLabel: ip, EdgeLabel: tcp, Time: 1}, // unrelated
		{From: 2, To: 1, FromLabel: ip, ToLabel: ip, EdgeLabel: tcp, Time: 2}, // reg (victim=2) …
		{From: 1, To: 2, FromLabel: ip, ToLabel: ip, EdgeLabel: tcp, Time: 3}, // … cmd, and reg (victim=1)
		{From: 2, To: 1, FromLabel: ip, ToLabel: ip, EdgeLabel: tcp, Time: 4}, // cmd for victim=1
	}
	for _, e := range edges {
		if _, err := s.Feed(e); err != nil {
			panic(err)
		}
	}
	s.Close()
	// Output:
	// victim=2 c&c=1 (reg@2 cmd@3)
	// victim=1 c&c=2 (reg@3 cmd@4)
}

// ExampleQueryBuilder_Before shows how timing-order constraints prune
// structurally identical subgraphs.
func ExampleQueryBuilder_Before() {
	labels := timingsubg.NewLabels()
	a, bl := labels.Intern("a"), labels.Intern("b")

	b := timingsubg.NewQueryBuilder()
	u := b.AddVertex(a)
	v := b.AddVertex(bl)
	w := b.AddVertex(a)
	first := b.AddEdge(u, v)
	second := b.AddEdge(w, v)
	b.Before(first, second) // ε_first ≺ ε_second
	q, err := b.Build()
	if err != nil {
		panic(err)
	}
	fmt.Println("edges:", q.NumEdges(), "order pairs:", len(q.OrderPairs()))
	// Output:
	// edges: 2 order pairs: 1
}

// ExampleDecompose shows the TC decomposition a query compiles to.
func ExampleDecompose() {
	labels := timingsubg.NewLabels()
	l := labels.Intern("x")
	b := timingsubg.NewQueryBuilder()
	v0, v1, v2, v3 := b.AddVertex(l), b.AddVertex(l), b.AddVertex(l), b.AddVertex(l)
	e1 := b.AddEdge(v0, v1)
	e2 := b.AddEdge(v1, v2)
	b.AddEdge(v2, v3) // no order constraint: its own TC-subquery
	b.Before(e1, e2)  // e1 ≺ e2 chains the first two edges
	q, err := b.Build()
	if err != nil {
		panic(err)
	}
	dec := timingsubg.Decompose(q)
	fmt.Println("k =", dec.K())
	// Output:
	// k = 2
}

package timingsubg_test

import (
	"fmt"
	"os"

	"timingsubg"
)

// chainABC builds the a→b→c chain with e1 ≺ e2 used by the examples.
func chainABC(labels *timingsubg.Labels) *timingsubg.Query {
	b := timingsubg.NewQueryBuilder()
	va := b.AddVertex(labels.Intern("a"))
	vb := b.AddVertex(labels.Intern("b"))
	vc := b.AddVertex(labels.Intern("c"))
	e1 := b.AddEdge(va, vb)
	e2 := b.AddEdge(vb, vc)
	b.Before(e1, e2)
	q, err := b.Build()
	if err != nil {
		panic(err)
	}
	return q
}

// ExampleOpen_durable shows durable search: edges are logged before
// matching, and reopening the same directory resumes with all state.
func ExampleOpen_durable() {
	dir, err := os.MkdirTemp("", "timingsubg-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	labels := timingsubg.NewLabels()
	q := chainABC(labels)
	la, lb, lc := labels.Intern("a"), labels.Intern("b"), labels.Intern("c")

	open := func() timingsubg.Engine {
		eng, err := timingsubg.Open(timingsubg.Config{
			Query:   q,
			Window:  100,
			Durable: &timingsubg.Durability{Dir: dir},
		})
		if err != nil {
			panic(err)
		}
		return eng
	}

	eng := open()
	eng.Feed(timingsubg.Edge{From: 1, To: 2, FromLabel: la, ToLabel: lb, Time: 1})
	eng.Feed(timingsubg.Edge{From: 2, To: 3, FromLabel: lb, ToLabel: lc, Time: 2})
	fmt.Println("run 1 matches:", eng.Stats().Matches)
	eng.Close()

	eng2 := open() // restart: counters and window state are recovered
	st := eng2.Stats()
	fmt.Println("run 2 recovered matches:", st.Matches)
	fmt.Println("run 2 window edges:", st.InWindow)
	eng2.Close()

	// Output:
	// run 1 matches: 1
	// run 2 recovered matches: 1
	// run 2 window edges: 2
}

// ExampleSubscription_C consumes matches from a subscription's channel.
func ExampleSubscription_C() {
	labels := timingsubg.NewLabels()
	q := chainABC(labels)
	la, lb, lc := labels.Intern("a"), labels.Intern("b"), labels.Intern("c")

	eng, err := timingsubg.Open(timingsubg.Config{Query: q, Window: 100})
	if err != nil {
		panic(err)
	}
	sub, err := eng.Subscribe(timingsubg.SubscribeOptions{Buffer: 16})
	if err != nil {
		panic(err)
	}
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for dv := range sub.C() {
			fmt.Println("got match with", len(dv.Match.Edges), "edges")
		}
	}()
	eng.Feed(timingsubg.Edge{From: 1, To: 2, FromLabel: la, ToLabel: lb, Time: 1})
	eng.Feed(timingsubg.Edge{From: 2, To: 3, FromLabel: lb, ToLabel: lc, Time: 2})
	eng.Close() // ends the subscription: its channel closes
	<-consumed

	// Output:
	// got match with 2 edges
}

// ExampleOpen_routedFleet monitors two patterns over one stream;
// routing dispatches each edge only to interested queries.
func ExampleOpen_routedFleet() {
	labels := timingsubg.NewLabels()
	lx, ly := labels.Intern("x"), labels.Intern("y")

	single := func(from, to timingsubg.Label) *timingsubg.Query {
		b := timingsubg.NewQueryBuilder()
		u, v := b.AddVertex(from), b.AddVertex(to)
		b.AddEdge(u, v)
		q, err := b.Build()
		if err != nil {
			panic(err)
		}
		return q
	}
	fl, err := timingsubg.Open(timingsubg.Config{
		Queries: []timingsubg.QuerySpec{
			{Name: "xy", Query: single(lx, ly)},
			{Name: "yx", Query: single(ly, lx)},
		},
		Window: 10,
		Routed: true,
		OnMatch: func(name string, m *timingsubg.Match) {
			fmt.Println("alert from", name)
		},
	})
	if err != nil {
		panic(err)
	}
	fl.Feed(timingsubg.Edge{From: 1, To: 2, FromLabel: lx, ToLabel: ly, Time: 1})
	fl.Feed(timingsubg.Edge{From: 2, To: 1, FromLabel: ly, ToLabel: lx, Time: 2})
	fl.Close()

	// Output:
	// alert from xy
	// alert from yx
}

// ExampleOpen_adaptive runs with join-order feedback enabled; on short
// streams it behaves exactly like a plain engine.
func ExampleOpen_adaptive() {
	labels := timingsubg.NewLabels()
	q := chainABC(labels)
	la, lb, lc := labels.Intern("a"), labels.Intern("b"), labels.Intern("c")

	a, err := timingsubg.Open(timingsubg.Config{
		Query:    q,
		Window:   100,
		Adaptive: &timingsubg.Adaptivity{},
	})
	if err != nil {
		panic(err)
	}
	a.Feed(timingsubg.Edge{From: 1, To: 2, FromLabel: la, ToLabel: lb, Time: 1})
	a.Feed(timingsubg.Edge{From: 2, To: 3, FromLabel: lb, ToLabel: lc, Time: 2})
	a.Close()
	st := a.Stats()
	fmt.Println("matches:", st.Matches, "reoptimizations:", st.Reoptimizations)

	// Output:
	// matches: 1 reoptimizations: 0
}

package timingsubg_test

import (
	"context"
	"errors"
	"testing"

	"timingsubg"
)

func TestSearcherRunChannel(t *testing.T) {
	q, _, ls := buildTwoHop(t)
	s, err := timingsubg.Open(timingsubg.Config{Query: q, Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan timingsubg.Edge, 4)
	ch <- timingsubg.Edge{From: 1, To: 2, FromLabel: ls[0], ToLabel: ls[1], Time: 1}
	ch <- timingsubg.Edge{From: 2, To: 3, FromLabel: ls[1], ToLabel: ls[2], Time: 2}
	close(ch)
	n, err := s.Run(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("want 2 edges processed, got %d", n)
	}
	if got := s.Stats().Matches; got != 1 {
		t.Fatalf("want 1 match, got %d", got)
	}
}

func TestSearcherRunCancellation(t *testing.T) {
	q, _, _ := buildTwoHop(t)
	s, err := timingsubg.Open(timingsubg.Config{Query: q, Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ch := make(chan timingsubg.Edge) // never fed
	_, err = s.Run(ctx, ch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestSearcherRunSurfacesFeedErrors(t *testing.T) {
	q, _, ls := buildTwoHop(t)
	s, err := timingsubg.Open(timingsubg.Config{Query: q, Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan timingsubg.Edge, 2)
	ch <- timingsubg.Edge{From: 1, To: 2, FromLabel: ls[0], ToLabel: ls[1], Time: 5}
	ch <- timingsubg.Edge{From: 1, To: 2, FromLabel: ls[0], ToLabel: ls[1], Time: 5} // out of order
	close(ch)
	n, err := s.Run(context.Background(), ch)
	if !errors.Is(err, timingsubg.ErrOutOfOrder) {
		t.Fatalf("out-of-order edge must surface ErrOutOfOrder, got %v", err)
	}
	if n != 1 {
		t.Fatalf("only the first edge processed, got %d", n)
	}
}

func TestMultiSearcherRun(t *testing.T) {
	labels := timingsubg.NewLabels()
	la, lb := labels.Intern("a"), labels.Intern("b")
	b := timingsubg.NewQueryBuilder()
	u, v := b.AddVertex(la), b.AddVertex(lb)
	b.AddEdge(u, v)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := timingsubg.Open(timingsubg.Config{
		Queries: []timingsubg.QuerySpec{{Name: "ab", Query: q}},
		Window:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan timingsubg.Edge, 1)
	ch <- timingsubg.Edge{From: 1, To: 2, FromLabel: la, ToLabel: lb, Time: 1}
	close(ch)
	n, err := ms.Run(context.Background(), ch)
	if err != nil || n != 1 {
		t.Fatalf("run: n=%d err=%v", n, err)
	}
	if ms.Stats().Queries["ab"].Matches != 1 {
		t.Fatal("match must register")
	}
}

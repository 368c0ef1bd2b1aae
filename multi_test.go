package timingsubg_test

import (
	"errors"
	"strings"
	"testing"

	"timingsubg"
)

func TestMultiSearcherFansOut(t *testing.T) {
	labels := timingsubg.NewLabels()
	la, lb, lc := labels.Intern("a"), labels.Intern("b"), labels.Intern("c")

	mkQuery := func(x, y timingsubg.Label) *timingsubg.Query {
		b := timingsubg.NewQueryBuilder()
		u, v := b.AddVertex(x), b.AddVertex(y)
		b.AddEdge(u, v)
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	got := map[string]int{}
	ms, err := timingsubg.Open(timingsubg.Config{
		Queries: []timingsubg.QuerySpec{
			{Name: "ab", Query: mkQuery(la, lb), Options: timingsubg.Options{Window: 10}},
			{Name: "bc", Query: mkQuery(lb, lc), Options: timingsubg.Options{Window: 10}},
		},
		OnMatch: func(name string, m *timingsubg.Match) { got[name]++ },
	})
	if err != nil {
		t.Fatal(err)
	}

	feed := func(f, to int64, fl, tl timingsubg.Label, tm int64) {
		t.Helper()
		if _, err := ms.Feed(timingsubg.Edge{
			From: timingsubg.VertexID(f), To: timingsubg.VertexID(to),
			FromLabel: fl, ToLabel: tl, Time: timingsubg.Timestamp(tm),
		}); err != nil {
			t.Fatal(err)
		}
	}
	feed(1, 2, la, lb, 1) // ab only
	feed(2, 3, lb, lc, 2) // bc only
	feed(4, 5, la, lb, 3) // ab only
	feed(9, 9, lc, lc, 4) // neither
	ms.Close()

	if got["ab"] != 2 || got["bc"] != 1 {
		t.Fatalf("fan-out miscounted: %v", got)
	}
	st := ms.Stats()
	if st.Queries["ab"].Matches != 2 || st.Queries["bc"].Matches != 1 {
		t.Fatalf("Stats.Queries matches: ab=%d bc=%d", st.Queries["ab"].Matches, st.Queries["bc"].Matches)
	}
	if st.SpaceBytes <= 0 {
		t.Error("space must be positive with live partials")
	}
}

func TestMultiSearcherValidation(t *testing.T) {
	if _, err := timingsubg.Open(timingsubg.Config{Queries: []timingsubg.QuerySpec{}}); !errors.Is(err, timingsubg.ErrBadOptions) {
		t.Errorf("empty spec list must be rejected, got %v", err)
	}
	labels := timingsubg.NewLabels()
	b := timingsubg.NewQueryBuilder()
	u, v := b.AddVertex(labels.Intern("a")), b.AddVertex(labels.Intern("b"))
	b.AddEdge(u, v)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = timingsubg.Open(timingsubg.Config{Queries: []timingsubg.QuerySpec{
		{Name: "bad", Query: q, Options: timingsubg.Options{Window: 0}},
	}})
	if !errors.Is(err, timingsubg.ErrBadOptions) || !strings.Contains(err.Error(), `"bad"`) {
		t.Errorf("bad per-query options must be surfaced with the query name, got %v", err)
	}
}

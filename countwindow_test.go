package timingsubg

import (
	"errors"
	"testing"
)

func TestCountWindowOptionsValidation(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	if _, err := Open(Config{Query: q}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("no window accepted: %v", err)
	}
	if _, err := Open(Config{Query: q, Window: 5, CountWindow: 5}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("both windows accepted: %v", err)
	}
	if _, err := Open(Config{Query: q, CountWindow: 5}); err != nil {
		t.Fatalf("count window rejected: %v", err)
	}
}

// TestCountWindowEqualsTimeWindowOnUnitSpacing: with unit inter-arrival
// times the two window kinds define identical snapshots, so the full
// matching pipelines must report identical match sets.
func TestCountWindowEqualsTimeWindowOnUnitSpacing(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 500, 21) // times are 1..500

	run := func(cfg Config) map[string]bool {
		got := map[string]bool{}
		cfg.Query = q
		cfg.OnMatch = func(_ string, m *Match) { got[matchKey(m)] = true }
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedEach(t, s, edges)
		s.Close()
		return got
	}

	timeMatches := run(Config{Window: 60})
	countMatches := run(Config{CountWindow: 60})
	if len(timeMatches) == 0 {
		t.Fatal("no matches at all; test stream too sparse")
	}
	if len(timeMatches) != len(countMatches) {
		t.Fatalf("time window found %d matches, count window %d", len(timeMatches), len(countMatches))
	}
	for k := range timeMatches {
		if !countMatches[k] {
			t.Fatalf("count window missed match %s", k)
		}
	}
}

// TestCountWindowExpiryDropsMatches: a standing match must disappear
// once one of its edges is pushed out of the count window.
func TestCountWindowExpiryDropsMatches(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	la, lb := labels.Intern("a"), labels.Intern("b")
	lc, ld := labels.Intern("c"), labels.Intern("d")

	s, err := Open(Config{Query: q, CountWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	standing := func() int {
		n := 0
		s.CurrentMatches(func(*Match) bool { n++; return true })
		return n
	}
	feed := func(from, to int64, fl, tl Label, ts int64) {
		if _, err := s.Feed(Edge{From: VertexID(from), To: VertexID(to), FromLabel: fl, ToLabel: tl, Time: Timestamp(ts)}); err != nil {
			t.Fatal(err)
		}
	}
	// Build the chain a→b→c→d in timing order; all 3 edges fit in the
	// 4-edge window.
	feed(1, 2, la, lb, 1)
	feed(2, 3, lb, lc, 2)
	feed(3, 4, lc, ld, 3)
	if n := standing(); n != 1 {
		t.Fatalf("standing matches = %d, want 1", n)
	}
	// Two unrelated edges push the first chain edge out of the window.
	feed(9, 9, la, la, 4)
	feed(9, 9, la, la, 5)
	if n := standing(); n != 0 {
		t.Fatalf("standing matches after expiry = %d, want 0", n)
	}
	s.Close()
}

// TestCountWindowBoundsState: under a hot burst the count window keeps
// the in-window edge count (and hence engine state) hard-bounded.
func TestCountWindowBoundsState(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	s, err := Open(Config{Query: q, CountWindow: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range persistTestStream(labels, 2000, 22) {
		if _, err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
		if n := FastStats(s).InWindow; n > 32 {
			t.Fatalf("edge %d: window holds %d > 32 edges", i, n)
		}
	}
	s.Close()
}

package graph

import (
	"slices"
	"testing"
)

// TestWindowerPushAllocs pins the window slide's allocation budget: once
// the ring and the expired buffer have grown, push + expire allocates
// nothing, and the reused expired slice still hands every push exactly
// its own expired edges. The windowers use no sync.Pool, so the count
// holds under -race too.
func TestWindowerPushAllocs(t *testing.T) {
	const n = 4
	for name, w := range map[string]Windower{"Stream": NewStream(n), "CountStream": NewCountStream(n)} {
		t.Run(name, func(t *testing.T) {
			var tm Timestamp
			push := func() []Edge {
				tm++
				_, exp, err := w.Push(Edge{From: VertexID(tm), Time: tm})
				if err != nil {
					t.Fatal(err)
				}
				return exp
			}
			for i := 0; i < 2*n; i++ {
				push()
			}
			allocs := testing.AllocsPerRun(100, func() {
				if exp := push(); len(exp) != 1 || exp[0].Time != tm-n {
					t.Fatalf("push at %d expired %v, want the edge at %d", tm, exp, tm-n)
				}
			})
			if allocs != 0 {
				t.Fatalf("Push: %v allocs after warm-up, want 0", allocs)
			}
		})
	}

	t.Run("consecutive bursts", func(t *testing.T) {
		s := NewStream(10)
		for tm := Timestamp(1); tm <= 5; tm++ {
			if _, _, err := s.Push(Edge{Time: tm}); err != nil {
				t.Fatal(err)
			}
		}
		want := [][]Timestamp{{1, 2, 3}, {4, 5}, nil}
		for i, tm := range []Timestamp{13, 15, 16} {
			_, exp, err := s.Push(Edge{Time: tm})
			if err != nil {
				t.Fatal(err)
			}
			if len(exp) != len(want[i]) {
				t.Fatalf("push at %d expired %v, want times %v", tm, exp, want[i])
			}
			for j, e := range exp {
				if e.Time != want[i][j] {
					t.Fatalf("push at %d expired %v, want times %v", tm, exp, want[i])
				}
			}
		}
	})
}

// TestInternBytes pins InternBytes against Intern: a miss assigns the
// ID Intern would have, in the same order, and a hit allocates nothing.
func TestInternBytes(t *testing.T) {
	byStr, byBytes := NewLabels(), NewLabels()
	for _, s := range []string{"IP", "", "ping", "IP", "Host", "ping"} {
		if want, got := byStr.Intern(s), byBytes.InternBytes([]byte(s)); got != want {
			t.Fatalf("InternBytes(%q) = %d, Intern = %d", s, got, want)
		}
	}
	if got, want := byBytes.Strings(), byStr.Strings(); !slices.Equal(got, want) {
		t.Fatalf("tables diverged: %q vs %q", got, want)
	}
	b := []byte("Host")
	allocs := testing.AllocsPerRun(100, func() {
		if id := byBytes.InternBytes(b); id != byStr.Intern("Host") {
			t.Fatalf("hit = %d", id)
		}
	})
	if allocs != 0 {
		t.Fatalf("InternBytes hit: %v allocs, want 0", allocs)
	}
}

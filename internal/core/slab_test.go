package core

import (
	"testing"

	"timingsubg/internal/datagen"
	"timingsubg/internal/explist"
	"timingsubg/internal/graph"
	"timingsubg/internal/querygen"
)

// reservedBytes sums the slab capacity of an MS-tree engine's trees.
func (e *Engine) reservedBytes() int64 {
	var b int64
	for _, s := range e.subs {
		b += s.(*explist.TreeSubList).Tree().ReservedBytes()
	}
	if e.global != nil {
		b += e.global.(*explist.TreeGlobalList).Tree().ReservedBytes()
	}
	return b
}

// TestSlabsReusedAcrossBursts is the MS-tree release policy on a
// social_burst-shaped stream: ten equal bursts a window apart, so each
// burst's first edge evicts the whole previous burst in one slide. The
// slots a burst frees serve the next, so the slabs reserve after burst
// 10 exactly what they reserved after burst 1.
func TestSlabsReusedAcrossBursts(t *testing.T) {
	labels := graph.NewLabels()
	gen := datagen.New(datagen.SocialStream, labels, datagen.Config{Vertices: 60, Seed: 4})
	edges := gen.Take(600)
	q, _, err := querygen.Generate(edges, querygen.Config{Size: 4, Order: querygen.RandomOrder, Seed: 3})
	if err != nil {
		t.Skipf("no query: %v", err)
	}
	const window = 1000 // longer than a burst, shorter than the gap
	for _, feed := range []struct {
		name    string
		process func(eng *Engine, d graph.Edge, expired []graph.Edge)
	}{
		{"batched", (*Engine).ProcessBatch},
		{"per-edge", (*Engine).Process},
	} {
		t.Run(feed.name, func(t *testing.T) {
			eng := New(q, Config{})
			st := graph.NewStream(window)
			var reserved1, partials1 int64
			for burst := range 10 {
				for i, e := range edges {
					e.Time = graph.Timestamp(burst*2*window + i + 1)
					stored, expired, err := st.Push(e)
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 && burst > 0 && len(expired) != len(edges) {
						t.Fatalf("burst %d's first edge expired %d edges, want the whole previous burst", burst+1, len(expired))
					}
					feed.process(eng, stored, expired)
				}
				reserved, partials := eng.reservedBytes(), eng.PartialMatchCount()
				if burst == 0 {
					if partials == 0 {
						t.Fatal("a burst stores no partial match: the test is vacuous")
					}
					reserved1, partials1 = reserved, partials
					continue
				}
				if partials != partials1 {
					t.Fatalf("burst %d stores %d partial matches, burst 1 stored %d: the bursts differ", burst+1, partials, partials1)
				}
				if reserved != reserved1 {
					t.Fatalf("burst %d: slabs reserve %d B, %d B after burst 1", burst+1, reserved, reserved1)
				}
			}
			t.Logf("%d partial matches per burst in %d reserved bytes", partials1, reserved1)
		})
	}
}

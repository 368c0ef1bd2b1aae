package core

import (
	"fmt"
	"testing"

	"timingsubg/internal/datagen"
	"timingsubg/internal/explist"
	"timingsubg/internal/graph"
	"timingsubg/internal/querygen"
)

// TestExpiryScratchPinsNothing checks that the batched sweep's
// engine-owned casualty buffers hold no node once a sweep is over: a
// dead subtree left in a slot past the buffer's length would stay
// reachable until a later sweep overwrote it, so a bulk eviction would
// keep its whole cone alive.
func TestExpiryScratchPinsNothing(t *testing.T) {
	labels := graph.NewLabels()
	gen := datagen.New(datagen.SocialStream, labels, datagen.Config{Vertices: 60, Seed: 4})
	edges := gen.Take(600)
	q, _, err := querygen.Generate(edges, querygen.Config{Size: 4, Order: querygen.RandomOrder, Seed: 3})
	if err != nil {
		t.Skipf("no query: %v", err)
	}
	eng := New(q, Config{})
	st := graph.NewStream(graph.Timestamp(len(edges)) * 10)
	for _, e := range edges {
		stored, expired, err := st.Push(e)
		if err != nil {
			t.Fatal(err)
		}
		eng.ProcessBatch(stored, expired)
	}
	if eng.PartialMatchCount() == 0 {
		t.Fatal("the stream stored no partial match: the test is vacuous")
	}
	// One slide evicts the whole window.
	_, expired, err := st.Push(graph.Edge{Time: edges[len(edges)-1].Time + st.Window() + 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.DeleteBatch(expired)
	if got := eng.PartialMatchCount(); got != 0 {
		t.Fatalf("%d partial matches survived the bulk eviction", got)
	}
	used := 0
	check := func(name string, buf []explist.Handle) {
		used += cap(buf)
		for i, h := range buf[:cap(buf)] {
			if h != nil {
				t.Errorf("%s slot %d of %d still holds %T after the sweep", name, i, cap(buf), h)
				return
			}
		}
	}
	for i, b := range eng.xs.cas {
		check(fmt.Sprintf("cas[%d]", i), b)
	}
	for s, b := range eng.xs.leaves {
		check(fmt.Sprintf("leaves[%d]", s), b)
	}
	if used == 0 {
		t.Fatal("the sweep used no buffer: the test is vacuous")
	}
}

package timingsubg

import (
	"errors"
	"testing"

	"timingsubg/internal/datagen"
)

// The batch-expiry equivalence suite at the composition layer: window
// slides run through the batched eviction plane (one transaction
// sweeping every expired edge of the slide over the per-level expiry
// order). Batching is pure performance — every public composition must
// report the per-query match sets and result counters of coreReference,
// which deletes edge-at-a-time. Deeper counter equivalence (PartialIns/
// PartialDel/EdgesOut) is asserted per stream in internal/core's
// TestExpiryBatchEquivalence; this layer proves the compositions —
// including sharded fleets, where shard workers run slides concurrently
// — inherit it, and that the batch-plane counters surface through the
// unified snapshot.

func TestExpiryEquivalenceFleet(t *testing.T) {
	// A small, high-churn window, so slides carry multi-edge batches.
	const window = 120
	for _, ds := range datagen.Datasets() {
		t.Run(ds.String(), func(t *testing.T) {
			labels := NewLabels()
			gen := datagen.New(ds, labels, datagen.Config{Vertices: 90, Seed: 41})
			edges := gen.Take(1500)
			specs := equivSpecs(t, edges)

			refKeys, ref := coreReference(t, specs, edges, window)
			if ref.Matches == 0 {
				t.Skip("degenerate workload: no matches")
			}
			if ref.ExpiryEvicted == 0 {
				t.Skip("degenerate workload: window never slid")
			}

			for _, tc := range equivRows {
				t.Run(tc.name, func(t *testing.T) {
					keys, st := equivFleetRun(t, tc.cfg, specs, edges, tc.batch, window)
					requireSameKeys(t, keys, refKeys)
					if st.Matches != ref.Matches || st.PartialMatches != ref.PartialMatches {
						t.Errorf("counters diverge: matches=%d partials=%d, want matches=%d partials=%d",
							st.Matches, st.PartialMatches, ref.Matches, ref.PartialMatches)
					}
					// The eviction tally is a property of the stream and
					// window, not of storage backend, worker count or sweep.
					if st.ExpiryEvicted != ref.ExpiryEvicted {
						t.Errorf("evicted %d edges, want %d", st.ExpiryEvicted, ref.ExpiryEvicted)
					}
					if st.ExpiryBatches == 0 || st.ExpiryEvicted < st.ExpiryBatches {
						t.Errorf("batch plane: batches=%d evicted=%d, want 0 < batches <= evicted",
							st.ExpiryBatches, st.ExpiryEvicted)
					}
				})
			}
		})
	}
}

// TestExpiryBatchStatsSurfaced checks the batch-plane counters flow
// through the unified snapshot on a plain single engine: batches > 0
// with evicted ≥ batches, and matches and evictions equal to the
// per-edge reference's.
func TestExpiryBatchStatsSurfaced(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 2000, 23)

	eng, err := Open(Config{Query: q, Window: 60})
	if err != nil {
		t.Fatal(err)
	}
	feedEach(t, eng, edges)
	bat := eng.Stats()
	eng.Close()
	_, per := coreReference(t, []QuerySpec{{Query: q}}, edges, 60)

	if bat.ExpiryBatches == 0 || bat.ExpiryEvicted == 0 {
		t.Fatalf("workload slid no eviction batches: batches=%d evicted=%d",
			bat.ExpiryBatches, bat.ExpiryEvicted)
	}
	if bat.ExpiryEvicted < bat.ExpiryBatches {
		t.Errorf("evicted %d < batches %d", bat.ExpiryEvicted, bat.ExpiryBatches)
	}
	if bat.ExpiryEvicted != per.ExpiryEvicted {
		t.Errorf("evictions diverge: batched %d, per-edge %d", bat.ExpiryEvicted, per.ExpiryEvicted)
	}
	if bat.Matches != per.Matches {
		t.Errorf("matches diverge: batched %d, per-edge %d", bat.Matches, per.Matches)
	}
	if bat.PartialMatches != per.PartialMatches {
		t.Errorf("standing partials diverge: batched %d, per-edge %d", bat.PartialMatches, per.PartialMatches)
	}
}

// TestExpiryShardedChurn races batch eviction against the full sharded
// Fleet surface under -race: a tight window makes nearly every FeedBatch
// chunk slide the window on some shard while other goroutines churn the
// roster and sample Stats. The pinned member's results must match a
// serial fleet fed the same stream.
func TestExpiryShardedChurn(t *testing.T) {
	labels := NewLabels()
	q := persistTestQuery(t, labels)
	edges := persistTestStream(labels, 6000, 77)

	serial, err := OpenFleet(Config{Queries: []QuerySpec{{Name: "pinned", Query: q}}, Window: 50})
	if err != nil {
		t.Fatal(err)
	}
	feedEach(t, serial, edges)
	want := serial.Stats().Queries["pinned"]
	serial.Close()

	t.Run("batched", func(t *testing.T) {
		fl, err := OpenFleet(Config{
			Dynamic:      true,
			FleetWorkers: 4,
			Window:       50,
			Queries:      []QuerySpec{{Name: "pinned", Query: q}},
		})
		if err != nil {
			t.Fatal(err)
		}
		accepted := stressFleet(t, fl, edges, q)
		if accepted != int64(len(edges)) {
			t.Fatalf("accepted %d of %d edges", accepted, len(edges))
		}
		got := fl.Stats().Queries["pinned"]
		if got.Matches != want.Matches {
			t.Errorf("pinned matches %d != serial %d", got.Matches, want.Matches)
		}
		if got.ExpiryBatches != want.ExpiryBatches || got.ExpiryEvicted != want.ExpiryEvicted {
			t.Errorf("pinned batch counters (batches=%d evicted=%d) != serial (batches=%d evicted=%d)",
				got.ExpiryBatches, got.ExpiryEvicted, want.ExpiryBatches, want.ExpiryEvicted)
		}
		if got.ExpiryBatches == 0 {
			t.Error("sharded run slid no eviction batches; the churn test is vacuous")
		}
		if err := fl.Close(); err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("Close: %v", err)
		}
	})
}

package timingsubg

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkSubscribeFan is the results-plane fan-out regression
// harness: one engine, 1/8/64 concurrent subscriptions, under the
// lossless Block policy (every subscriber actively draining) and the
// load-shedding DropOldest policy (every subscriber stalled — the
// worst case the drop policies exist for: ingest must not slow down
// beyond the constant eviction cost). Served, tsbench's
// dispatch.ns_per_match on wiki_fleet tracks the delivery path.
func BenchmarkSubscribeFan(b *testing.B) {
	const fanStreamLen = 20_000
	labels := NewLabels()
	q := persistTestQuery(b, labels)
	edges := persistTestStream(labels, fanStreamLen, 7)

	cases := []struct {
		name   string
		policy OverflowPolicy
		drain  bool
	}{
		{name: "block", policy: Block, drain: true},
		{name: "dropoldest-stalled", policy: DropOldest, drain: false},
	}
	for _, tc := range cases {
		for _, subs := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/subs-%d", tc.name, subs), func(b *testing.B) {
				b.ReportAllocs()
				var matches int64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					eng, err := Open(Config{Query: q, Window: 50})
					if err != nil {
						b.Fatal(err)
					}
					var wg sync.WaitGroup
					for s := 0; s < subs; s++ {
						sub, err := eng.Subscribe(SubscribeOptions{Policy: tc.policy, Buffer: 64})
						if err != nil {
							b.Fatal(err)
						}
						if tc.drain {
							wg.Add(1)
							go func() {
								defer wg.Done()
								for range sub.C() {
								}
							}()
						}
					}
					b.StartTimer()
					for off := 0; off < len(edges); off += 1024 {
						end := off + 1024
						if end > len(edges) {
							end = len(edges)
						}
						if _, err := eng.FeedBatch(edges[off:end]); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					matches = eng.Stats().Matches
					eng.Close() // ends the subscriptions; drains exit
					wg.Wait()
					b.StartTimer()
				}
				b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
				b.ReportMetric(float64(matches*int64(subs))*float64(b.N)/b.Elapsed().Seconds(), "deliveries/s")
			})
		}
	}
}

package timingsubg

import "testing"

// BenchmarkIngestLatency is the observability-plane headline benchmark:
// it drives the 1e5-edge stream through a metrics-on engine and reports
// the pipeline's own histogram percentiles as benchmark metrics — p50
// and p99 ingest latency (feed call → edge fully joined and delivered)
// and p50/p99 detection latency (triggering-edge arrival → match
// emission). Served, tsbench reports the same quantities end to end
// (detect_p50_ms, engine.detection_p99_ms).
func BenchmarkIngestLatency(b *testing.B) {
	labels := NewLabels()
	q := persistTestQuery(b, labels)
	edges := persistTestStream(labels, benchStreamLen, 7)
	for _, bc := range []struct {
		name  string
		batch int
	}{{"feed", 0}, {"batch-1024", 1024}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var st Stats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, err := Open(Config{Query: q, Window: 50})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if bc.batch <= 0 {
					for _, e := range edges {
						if _, err := eng.Feed(e); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					for off := 0; off < len(edges); off += bc.batch {
						end := min(off+bc.batch, len(edges))
						if _, err := eng.FeedBatch(edges[off:end]); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				st = eng.Stats()
				eng.Close()
				b.StartTimer()
			}
			if st.Stages == nil {
				b.Fatal("metrics must be on for the latency benchmark")
			}
			if st.Stages.Ingest.Count == 0 || st.Stages.Detection.Count == 0 {
				b.Fatalf("stream must exercise ingest and detection: %+v", st.Stages)
			}
			b.ReportMetric(float64(st.Stages.Ingest.P50), "p50-ingest-ns")
			b.ReportMetric(float64(st.Stages.Ingest.P99), "p99-ingest-ns")
			b.ReportMetric(float64(st.Stages.Detection.P50), "p50-detect-ns")
			b.ReportMetric(float64(st.Stages.Detection.P99), "p99-detect-ns")
			b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

package server

import (
	"maps"
	"net/http"
	"slices"

	"timingsubg"
	"timingsubg/internal/monitor"
	"timingsubg/internal/stats"
	"timingsubg/internal/tenant"
)

// tenantUsage lists the per-tenant admission and ownership series,
// read from the tenant's own buckets rather than the engine snapshot.
var tenantUsage = []struct {
	name  string
	gauge bool
	get   func(tenant.Usage) float64
}{
	{"timingsubg_tenant_admitted_edges_total", false, func(u tenant.Usage) float64 { return float64(u.AdmittedEdges) }},
	{"timingsubg_tenant_rejected_edges_total", false, func(u tenant.Usage) float64 { return float64(u.RejectedEdges) }},
	{"timingsubg_tenant_admitted_batches_total", false, func(u tenant.Usage) float64 { return float64(u.AdmittedBatches) }},
	{"timingsubg_tenant_rejected_batches_total", false, func(u tenant.Usage) float64 { return float64(u.RejectedBatches) }},
	{"timingsubg_tenant_ingest_bytes_total", false, func(u tenant.Usage) float64 { return float64(u.IngestBytes) }},
	{"timingsubg_tenant_queries", true, func(u tenant.Usage) float64 { return float64(u.Queries) }},
	{"timingsubg_tenant_subscriptions", true, func(u tenant.Usage) float64 { return float64(u.Subscriptions) }},
}

// sample emits one counter or gauge sample; an empty label is none.
func sample(pw *monitor.PromWriter, name string, gauge bool, label, value string, v float64) {
	var labels map[string]string
	if label != "" {
		labels = map[string]string{label: value}
	}
	if gauge {
		pw.Gauge(name, labels, v)
	} else {
		pw.Counter(name, labels, v)
	}
}

// writeCounters emits every counter-table row exposed in scope, one
// family at a time with a sample per name found in snaps — family
// outer, label inner, so each family's samples form the one contiguous
// group the text format requires.
func writeCounters(pw *monitor.PromWriter, scope stats.Scope, label string, names []string, snaps map[string]timingsubg.Stats) {
	for i := range stats.Counters {
		c := &stats.Counters[i]
		for _, name := range names {
			if st, ok := snaps[name]; ok && c.In(scope, &st) {
				sample(pw, c.PromName(scope), c.Gauge, label, name, c.Float(&st))
			}
		}
	}
}

// handleProm serves GET /metrics in the Prometheus text format. Unlike
// GET /stats it does NOT ride the serialized work queue: the snapshot
// behind it (FastStats) is documented concurrency-safe against feeding,
// and the histograms are atomics — so a scrape never waits in line
// behind an ingest burst, and a stalled scraper cannot exert
// backpressure on producers.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	st := timingsubg.FastStats(s.fl)
	pw := monitor.NewPromWriter()

	// Fleet-wide counters and gauges: the engine's from the counter
	// table, then the ones only the server knows.
	writeCounters(pw, stats.Engine, "", []string{""}, map[string]timingsubg.Stats{"": st})
	pw.Counter("timingsubg_ingested_edges_total", nil, float64(s.ingested.Load()))
	pw.Gauge("timingsubg_queries", nil, float64(len(st.Queries)))
	pw.Gauge("timingsubg_queue_depth", nil, float64(s.sched.Len()))
	rs := s.replay.stats()
	pw.Gauge("timingsubg_replay_events", nil, float64(rs.ReplayEvents))
	pw.Gauge("timingsubg_replay_bytes", nil, float64(rs.ReplayBytes))
	if st.WatermarkLagNs != 0 {
		pw.Gauge("timingsubg_watermark_lag_seconds", nil, float64(st.WatermarkLagNs)/1e9)
	}

	// Per-query attribution, sorted for deterministic output.
	names := slices.Sorted(maps.Keys(st.Queries))
	writeCounters(pw, stats.Query, "query", names, st.Queries)

	// Per-tenant control-plane series — emitted only when tenancy is
	// enabled, so a single-tenant server's exposition carries none.
	// Tenant names come sorted from the registry; admission counters
	// come from the tenant's buckets, engine counters and the
	// tenant-wide detection histogram from the group aggregation
	// (QuerySpec.Group = tenant), which survives query retirement.
	if s.tenants != nil {
		tenants := s.tenants.Names()
		usage := s.usageByTenant()
		for _, f := range tenantUsage {
			for _, name := range tenants {
				if u, ok := usage[name]; ok {
					sample(pw, f.name, f.gauge, "tenant", name, f.get(u))
				}
			}
		}
		writeCounters(pw, stats.Tenant, "tenant", tenants, st.Groups)
		for _, name := range tenants {
			if det := st.Groups[name].Detection; det != nil {
				pw.Histogram("timingsubg_tenant_detection_latency_seconds", map[string]string{"tenant": name}, *det)
			}
		}
	}

	// Per-stage latency histograms (absent when metrics are disabled),
	// in the stage list's order — stable output is what diff-based
	// scrape tooling keys on.
	if st.Stages != nil {
		stats.EachStage(st.Stages, func(stage string, snap *stats.Snapshot) {
			pw.Histogram("timingsubg_stage_latency_seconds", map[string]string{"stage": stage}, *snap)
		})
	}
	// Per-query detection latency — the paper's end-to-end metric,
	// attributed to the query that matched.
	for _, name := range names {
		if det := st.Queries[name].Detection; det != nil {
			pw.Histogram("timingsubg_query_detection_latency_seconds",
				map[string]string{"query": name}, *det)
		}
	}

	w.Header().Set("Content-Type", monitor.ContentType)
	w.Write(pw.Bytes())
}

package timingsubg

import (
	"io"
	"net/http"

	"timingsubg/internal/monitor"
	"timingsubg/internal/stats"
)

// MetricsRegistry collects named live metrics and serves them over
// HTTP as JSON. See NewMetricsRegistry.
type MetricsRegistry = monitor.Registry

// NewMetricsRegistry returns an empty metrics registry. Register
// engines into it and mount its Handler:
//
//	reg := timingsubg.NewMetricsRegistry()
//	timingsubg.RegisterMetrics(reg, "cc_attack", eng)
//	http.Handle("/metrics", reg.Handler())
//
// GET /metrics returns every metric; GET /metrics?metric=<name> one.
func NewMetricsRegistry() *MetricsRegistry { return monitor.NewRegistry() }

// MetricsHandler is a convenience for a registry-backed http.Handler.
func MetricsHandler(r *MetricsRegistry) http.Handler { return r.Handler() }

// statsSource lets gauges sample a fleet member by name, so a gauge
// never pins a retired engine or reports a recycled name's counters.
// fast selects the counter-only snapshot.
type statsSource interface {
	queryStats(name string, fast bool) (Stats, bool)
}

// fastStatser is the counter-only snapshot fast path: everything in
// Stats except the fields that walk partial-match state.
type fastStatser interface {
	statsFast() Stats
}

// FastStats returns eng's counter-only snapshot: Stats with the fields
// that walk partial-match state (PartialMatches, SpaceBytes) left
// zero. It is the cheap sampler for frequently-scraped gauges; engines
// that do not implement the fast path fall back to the full Stats.
func FastStats(eng Engine) Stats {
	if fs, ok := eng.(fastStatser); ok {
		return fs.statsFast()
	}
	return eng.Stats()
}

// stateWriter is the diagnostic dump behind WriteState.
type stateWriter interface {
	writeState(w io.Writer)
}

// WriteState dumps eng's live expansion-list populations and counters
// to w for diagnostics (tsrun -state). Call while no feed is in flight.
// Only single-query engines carry one expansion-list state to dump; for
// a fleet WriteState writes nothing.
func WriteState(w io.Writer, eng Engine) {
	if sw, ok := eng.(stateWriter); ok {
		sw.writeState(w)
	}
}

// subscriptionCounterer reads the results-plane counters straight off
// the engine's dispatcher — no roster walk, no shard locks.
type subscriptionCounterer interface {
	subscriptionCounters() (subs int, delivered, dropped int64)
}

// SubscriptionCounters reports eng's live results-plane accounting —
// attached subscriptions, deliveries buffered, deliveries dropped by
// overflow policies — without taking a stats snapshot. It is the
// cheap sampler for frequently-scraped delivery gauges; engines that
// do not implement the fast path fall back to FastStats.
func SubscriptionCounters(eng Engine) (subs int, delivered, dropped int64) {
	if sc, ok := eng.(subscriptionCounterer); ok {
		return sc.subscriptionCounters()
	}
	st := FastStats(eng)
	return st.Subscriptions, st.SubscriptionDelivered, st.SubscriptionDropped
}

// scalarStatser is the cheapest sampler: FastStats without
// materializing the per-member Queries map.
type scalarStatser interface {
	statsScalar() Stats
}

// scalarStats samples one scalar-gauge snapshot as cheaply as eng
// allows.
func scalarStats(eng Engine) Stats {
	if ss, ok := eng.(scalarStatser); ok {
		return ss.statsScalar()
	}
	return FastStats(eng)
}

// registerCounters registers, under prefix, every counter-table row
// that applies to probe's composition, plus the detection p99 derived
// from its histogram. sample takes the snapshot a gauge reads — the
// full one when the row walks partial-match state; those rows are
// skipped unless walks is set.
func registerCounters(r *MetricsRegistry, prefix string, probe Stats, walks bool, sample func(walk bool) Stats) error {
	for i := range stats.Counters {
		c := &stats.Counters[i]
		if !c.In(stats.Registry, &probe) || c.Walk && !walks {
			continue
		}
		err := r.Register(prefix+"."+c.Metric, func() any {
			st := sample(c.Walk)
			return c.Value(&st)
		})
		if err != nil {
			return err
		}
	}
	if probe.Detection == nil {
		return nil
	}
	return r.Register(prefix+".detection_p99_ns", func() any {
		if st := sample(false); st.Detection != nil {
			return int64(st.Detection.P99)
		}
		return int64(0)
	})
}

// RegisterMetrics registers eng's live counters under prefix.<metric>,
// generically from its unified Stats snapshot and the counter table —
// one registration path for every engine composition. Fleets
// additionally get prefix.<query-name>.<metric> per query live at
// registration time (gauges resolve the query by name at sample time,
// so a retired query reports zero; queries added after registration are
// not picked up — a dynamic serving layer should sample Stats directly)
// plus a prefix.space_bytes_total aggregate. Counter gauges are safe to
// sample while edges are being fed.
func RegisterMetrics(r *MetricsRegistry, prefix string, eng Engine) error {
	sample := func(walk bool) Stats {
		if walk {
			return eng.Stats()
		}
		return scalarStats(eng)
	}
	st := sample(false)
	// Fleets get per-member walk gauges plus the space_bytes_total
	// aggregate below; a fleet-level copy of each walking gauge would
	// double the partial-match walks per scrape.
	if err := registerCounters(r, prefix, st, !st.Fleet, sample); err != nil {
		return err
	}
	if st.Stages != nil {
		// The whole per-stage latency breakdown as one structured gauge:
		// the JSON registry serves nested histogram summaries without a
		// metric name per quantile.
		if err := r.Register(prefix+".stages", func() any { return sample(false).Stages }); err != nil {
			return err
		}
	}
	fl, ok := eng.(Fleet)
	if !ok {
		return nil
	}
	src, _ := eng.(statsSource)
	for _, name := range fl.Names() {
		member := func(walk bool) Stats {
			if src == nil {
				return eng.Stats().Queries[name]
			}
			qs, _ := src.queryStats(name, !walk)
			return qs
		}
		// Per-member snapshots are never fleets, so they get the
		// single-engine gauge set.
		if err := registerCounters(r, prefix+"."+name, member(false), true, member); err != nil {
			return err
		}
	}
	return r.Register(prefix+".space_bytes_total", func() any { return eng.Stats().SpaceBytes })
}

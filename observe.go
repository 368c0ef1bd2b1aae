package timingsubg

import (
	"log/slog"
	"sync/atomic"
	"time"

	"timingsubg/internal/stats"
)

// LatencySnapshot is a point-in-time latency summary: sample count,
// mean, p50/p90/p99/p999 and max, plus the bucket counts behind the
// Prometheus cumulative exposition. JSON fields are nanoseconds.
type LatencySnapshot = stats.Snapshot

// StageStats is the per-stage latency breakdown of the ingest pipeline,
// one LatencySnapshot per stage. Engines populate it unless
// Config.DisableMetrics is set; stages an engine composition does not
// exercise (e.g. WAL stages on an in-memory engine) stay empty.
type StageStats = stats.StageStats

// SlowOp describes one pipeline operation that exceeded
// Config.SlowOpThreshold, with its stage breakdown.
type SlowOp struct {
	// Op is the operation kind: "feed", "feed_batch" or "delivery" (a
	// synchronous match delivery, e.g. a Block subscriber stalling).
	Op string `json:"op"`
	// Query is the query being delivered ("" for feed ops and
	// single-query engines).
	Query string `json:"query,omitempty"`
	// Edges is the number of edges the operation carried (0 for
	// delivery ops).
	Edges int `json:"edges,omitempty"`
	// Total is the operation's wall time; WAL is the append+fsync
	// portion and Fanout the remainder (member fan-out, join, expiry,
	// delivery) for feed ops.
	Total  time.Duration `json:"total_ns"`
	WAL    time.Duration `json:"wal_ns,omitempty"`
	Fanout time.Duration `json:"fanout_ns,omitempty"`
}

// defaultSlowOp is the slow-op hook used when Config.SlowOpThreshold is
// set without OnSlowOp: a structured warning on the default logger.
func defaultSlowOp(op SlowOp) {
	slog.Warn("timingsubg: slow op",
		"op", op.Op, "query", op.Query, "edges", op.Edges,
		"total", op.Total, "wal", op.WAL, "fanout", op.Fanout)
}

// obs is one engine's observability wiring: the stage pipeline (shared
// fleet-wide by members), this engine's detection histogram, the
// arrival clock the detection latency is measured from, and the
// slow-op hook. A nil *obs disables instrumentation.
type obs struct {
	pipe *stats.Pipeline
	// det is this engine's detection histogram — a private histogram
	// per fleet member (the per-query view), &pipe.Detection for the one
	// member of a single-query engine; fleetDet, when non-nil,
	// additionally receives every member observation so the fleet-wide
	// stage view stays whole.
	// groupDet, when non-nil, is the member's QuerySpec.Group histogram
	// shared with every other member of the group (the per-tenant view).
	det      *stats.AtomicHistogram
	fleetDet *stats.AtomicHistogram
	groupDet *stats.AtomicHistogram
	// arrival is the wallclock (UnixNano) when the edge(s) currently
	// being processed entered the engine — stored at the feed boundary,
	// read at match emit. Members share the fleet's cell so sharded
	// fan-out reads one batch-level arrival. Zero means "no live feed"
	// (recovery replay), which suppresses detection observations.
	arrival    *atomic.Int64
	arrivalOwn atomic.Int64

	eventUnitNs int64
	slowNs      int64
	onSlow      func(SlowOp)
}

// newObs builds the wiring for one engine (or one fleet).
func newObs(p *stats.Pipeline, eventUnitNs, slowNs int64, onSlow func(SlowOp)) *obs {
	o := &obs{pipe: p, det: &p.Detection, eventUnitNs: eventUnitNs, slowNs: slowNs, onSlow: onSlow}
	if o.onSlow == nil {
		o.onSlow = defaultSlowOp
	}
	o.arrival = &o.arrivalOwn
	return o
}

// slowFeed fires the slow-op hook when a feed that began at start
// exceeded the threshold. The clock is read only when a threshold is
// configured.
func (o *obs) slowFeed(op string, edges int, start time.Time, walD time.Duration) {
	if o.slowNs <= 0 {
		return
	}
	if total := time.Since(start); int64(total) > o.slowNs {
		o.onSlow(SlowOp{Op: op, Edges: edges, Total: total, WAL: walD, Fanout: total - walD})
	}
}

// onMatch records detection latency and event-time lag for one emitted
// match, times the synchronous delivery via publish, and fires the
// slow-delivery hook. query is the publishing name.
func (o *obs) onMatch(query string, m *Match, publish func()) {
	now := time.Now()
	// arrival == 0 means no live feed is in flight (recovery replay):
	// detection latency and event-time lag are meaningless for
	// re-reported historical matches, so both are suppressed.
	if arr := o.arrival.Load(); arr > 0 {
		d := time.Duration(now.UnixNano() - arr)
		if d < 0 {
			d = 0
		}
		o.det.Observe(d)
		if o.fleetDet != nil {
			o.fleetDet.Observe(d)
		}
		if o.groupDet != nil {
			o.groupDet.Observe(d)
		}
		if o.eventUnitNs > 0 {
			if lag := now.UnixNano() - latestEdgeTime(m)*o.eventUnitNs; lag > 0 {
				o.pipe.EventTimeLag.Observe(time.Duration(lag))
			}
		}
	}
	publish()
	d := time.Since(now)
	o.pipe.Dispatch.Observe(d)
	if o.slowNs > 0 && int64(d) > o.slowNs {
		o.onSlow(SlowOp{Op: "delivery", Query: query, Total: d})
	}
}

// latestEdgeTime returns the newest bound edge timestamp of a complete
// match — its triggering edge's event time.
func latestEdgeTime(m *Match) int64 {
	t := int64(minTimestamp)
	for i := range m.Edges {
		if et := int64(m.Edges[i].Time); et > t {
			t = et
		}
	}
	return t
}

// watermarkLag maps the engine's stream clock through the event-time
// unit and returns now − watermark in nanoseconds (0 when event time is
// not configured or nothing has been fed). Negative values mean the
// producer's timestamps run ahead of this host's clock.
func watermarkLag(last Timestamp, unitNs int64) int64 {
	if unitNs <= 0 || last == 0 {
		return 0
	}
	return time.Now().UnixNano() - int64(last)*unitNs
}

// pipeSync selects the WAL fsync histogram of a pipeline. Nil-safe —
// the wal package takes nil as "off".
func pipeSync(p *stats.Pipeline) *stats.AtomicHistogram {
	if p == nil {
		return nil
	}
	return &p.WALSync
}

// pipeGroupCommit selects the group-commit wait histogram. Nil-safe.
func pipeGroupCommit(p *stats.Pipeline) *stats.AtomicHistogram {
	if p == nil {
		return nil
	}
	return &p.WALGroupCommit
}

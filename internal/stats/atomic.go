package stats

import (
	"reflect"
	"sync/atomic"
	"time"
)

// AtomicHistogram is the concurrency-safe sibling of Histogram: the
// same log-bucketed layout with every cell updated atomically, so any
// number of goroutines may Observe while others Snapshot. The zero
// value is ready to use.
//
// Observe is wait-free except for the max update (a short CAS loop);
// the cost is a handful of uncontended atomic adds, cheap enough to
// leave on in the ingest hot path. Snapshot reads the buckets without
// a lock, so a snapshot taken mid-Observe may be torn by a sample or
// two across fields — the documented trade for a lock-free hot path.
// Within a snapshot, Count is defined as the sum of the bucket counts
// read, so cumulative expositions are always internally consistent.
type AtomicHistogram struct {
	counts [nBuckets]atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// Observe records one latency sample. Safe for concurrent use.
func (h *AtomicHistogram) Observe(d time.Duration) {
	h.counts[bucketFor(d)].Add(1)
	h.sum.Add(int64(d))
	for {
		m := h.max.Load()
		if int64(d) <= m || h.max.CompareAndSwap(m, int64(d)) {
			return
		}
	}
}

// Count returns the number of samples observed so far.
func (h *AtomicHistogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Snapshot summarizes the histogram at a point in time. Safe to call
// concurrently with Observe.
func (h *AtomicHistogram) Snapshot() Snapshot {
	var counts [nBuckets]uint64
	var n uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] = c
		n += c
	}
	return snapshotOf(&counts, n,
		time.Duration(h.sum.Load()), time.Duration(h.max.Load()))
}

// Pipeline is the per-engine set of stage latency histograms the
// serving plane exposes: one AtomicHistogram per pipeline stage, all
// observed lock-free from the feed path and snapshotted by stats
// samplers and the /metrics exposition. A nil *Pipeline disables
// instrumentation everywhere it is threaded.
type Pipeline struct {
	// Ingest is end-to-end Feed/FeedBatch latency per edge (WAL append
	// + fan-out + join + expiry + synchronous delivery).
	Ingest AtomicHistogram
	// WALAppend times each durable append call (including any fsync the
	// append's cadence triggered); WALSync times each fsync alone.
	WALAppend AtomicHistogram
	WALSync   AtomicHistogram
	// WALGroupCommit times each committer's wait for group-commit
	// durability — the coalescing latency a caller pays when its fsync
	// is shared with (or queued behind) concurrent committers.
	WALGroupCommit AtomicHistogram
	// QueueWait is time a shard task spends queued before a fleet pool
	// worker picks it up; ShardExec is the task's execution time.
	QueueWait AtomicHistogram
	ShardExec AtomicHistogram
	// Join times core insert work per edge; Expiry times each
	// window-expiry sweep (the batch of deletes one slide evicts).
	Join   AtomicHistogram
	Expiry AtomicHistogram
	// Dispatch times synchronous match delivery (Publish fan-out to
	// subscribers, including any Block-policy backpressure).
	Dispatch AtomicHistogram
	// Detection is the paper's detection latency: emit wallclock minus
	// the triggering edge's arrival wallclock, engine-wide. Per-query
	// detection histograms live on each fleet member.
	Detection AtomicHistogram
	// EventTimeLag is emit wallclock minus the triggering edge's event
	// timestamp (Config.EventTimeUnit maps edge times to wallclock);
	// only observed when an event-time unit is configured.
	EventTimeLag AtomicHistogram
}

// NewPipeline returns an empty stage-histogram set.
func NewPipeline() *Pipeline { return &Pipeline{} }

// StageStats is the per-stage latency breakdown of the ingest pipeline,
// one Snapshot per Pipeline histogram, and it is the stage list: a
// field's JSON tag is the stage's wire name (its GET /stats key and its
// GET /metrics stage label), declaration order is exposition order, and
// each field snapshots the Pipeline histogram of the same name (the
// hist tag names it where the two differ). Engines populate it unless
// Config.DisableMetrics is set; stages an engine composition does not
// exercise (e.g. WAL stages on an in-memory engine) stay empty.
type StageStats struct {
	// Ingest is end-to-end feed latency, observed by the ingest
	// pipeline's executor: per edge on the inline executor (single
	// engines and FleetWorkers <= 1 fleets, Feed and FeedBatch alike),
	// per call on a sharded fleet's fan-out — shards interleave a
	// batch's edges there, so one edge has no latency of its own.
	Ingest Snapshot `json:"ingest"`
	// WALAppend times each durable append (including any cadence fsync
	// it triggered); WALSync times each fsync alone.
	WALAppend Snapshot `json:"wal_append"`
	WALSync   Snapshot `json:"wal_sync"`
	// GroupCommit times each committer's wait for group-commit
	// durability — the batch-coalescing latency paid when an fsync is
	// shared with (or queued behind) concurrent committers.
	GroupCommit Snapshot `json:"wal_group_commit" hist:"WALGroupCommit"`
	// QueueWait is the time a shard task waits for a fleet-pool worker;
	// ShardExec is the task's execution time (sharded fleets only).
	QueueWait Snapshot `json:"shard_queue_wait"`
	ShardExec Snapshot `json:"shard_exec"`
	// Join times core insert work per edge; Expiry times each
	// window-expiry sweep.
	Join   Snapshot `json:"join"`
	Expiry Snapshot `json:"expiry"`
	// Dispatch times synchronous match delivery (subscriber fan-out,
	// including Block-policy backpressure).
	Dispatch Snapshot `json:"dispatch"`
	// Detection is the paper's detection latency — match emit wallclock
	// minus triggering edge arrival wallclock — engine-wide. Per-query
	// histograms are in Stats.Queries[name].Detection.
	Detection Snapshot `json:"detection"`
	// EventTimeLag is match emit wallclock minus the triggering edge's
	// event timestamp mapped through Config.EventTimeUnit (empty when
	// no unit is configured).
	EventTimeLag Snapshot `json:"event_time_lag"`
}

// stages resolves the stage list once: per StageStats field, its wire
// name and the index of its Pipeline histogram.
var stages = func() []stage {
	st, pt := reflect.TypeOf(StageStats{}), reflect.TypeOf(Pipeline{})
	out := make([]stage, st.NumField())
	for i := range out {
		f := st.Field(i)
		name := f.Tag.Get("hist")
		if name == "" {
			name = f.Name
		}
		h, ok := pt.FieldByName(name)
		if !ok {
			panic("stats: stage " + f.Name + " has no Pipeline histogram " + name)
		}
		out[i] = stage{name: f.Tag.Get("json"), hist: h.Index[0]}
	}
	return out
}()

type stage struct {
	name string
	hist int
}

// Snapshot snapshots every stage histogram.
func (p *Pipeline) Snapshot() *StageStats {
	out := new(StageStats)
	pv, sv := reflect.ValueOf(p).Elem(), reflect.ValueOf(out).Elem()
	for i, s := range stages {
		h := pv.Field(s.hist).Addr().Interface().(*AtomicHistogram)
		*sv.Field(i).Addr().Interface().(*Snapshot) = h.Snapshot()
	}
	return out
}

// EachStage calls fn with every stage's wire name and snapshot, in
// exposition order.
func EachStage(s *StageStats, fn func(name string, snap *Snapshot)) {
	sv := reflect.ValueOf(s).Elem()
	for i, st := range stages {
		fn(st.name, sv.Field(i).Addr().Interface().(*Snapshot))
	}
}

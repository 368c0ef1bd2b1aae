package stats

import (
	"reflect"
	"strings"

	"timingsubg/internal/graph"
)

// Stats is the unified live-counter snapshot of any engine, declared
// once: the root package returns it (timingsubg.Stats), the serving
// layer marshals it on GET /stats and the client decodes it
// (client.EngineStats) — all aliases of this struct, so the JSON tags
// here are the wire contract. Fields that a composition does not use
// stay at their zero value; the Adaptive, Durable and Fleet flags say
// which sections apply. Every scalar field has one row in Counters,
// which is where its Prometheus series and fleet aggregation come
// from.
type Stats struct {
	// Matches is the number of complete matches reported so far, durable
	// across restarts and engine rebuilds.
	Matches int64 `json:"matches"`
	// Discarded counts fed edges filtered as discardable (matched a
	// query edge label but could never complete a match).
	Discarded int64 `json:"discarded"`
	// Fed counts edges pushed through this engine in this process
	// (including recovery replay; fleets count edges offered, not the
	// per-member fan-out).
	Fed int64 `json:"fed"`
	// InWindow is the number of edges currently inside the window
	// (summed over members, for fleets).
	InWindow int `json:"in_window"`
	// PartialMatches is the number of stored partial matches.
	PartialMatches int64 `json:"partial_matches"`
	// SpaceBytes estimates resident bytes of maintained partial matches.
	SpaceBytes int64 `json:"space_bytes"`
	// LastTime is the timestamp of the most recent edge seen (across
	// restarts, in durable mode), or 0 before any edge.
	LastTime graph.Timestamp `json:"last_time"`

	// JoinScanned counts stored partial matches visited by INSERT probe
	// loops; JoinCandidates counts the visited matches that passed the
	// join-key filter (equal connecting-vertex binding, or equal shared
	// bindings in the global cascade). With the MS-tree backend's vertex
	// join indexes every visited match is a candidate — the two are
	// equal — while scan-mode and independent-storage engines visit
	// whole expansion-list items, so candidates/scanned is the index's
	// observed selectivity. Process-local (reset by a restart, and
	// including re-joins performed by adaptive rebuilds and checkpoint
	// restores, which do real work).
	JoinScanned    int64 `json:"join_scanned,omitempty"`
	JoinCandidates int64 `json:"join_candidates,omitempty"`
	// JoinMaterialized counts the global cascade's join candidates built
	// into a match: the cascade checks each candidate where it is stored
	// and builds only the pairs that join. Process-local and
	// accumulated like the two above.
	JoinMaterialized int64 `json:"join_materialized,omitempty"`

	// ExpiryBatches counts window slides processed through the batched
	// expiry path — one delete transaction sweeping the slide's whole
	// eviction set; ExpiryEvicted counts the expired edges those
	// batches covered. Their ratio is the mean eviction batch size,
	// the factor by which batching divides per-item lock round-trips
	// relative to edge-at-a-time expiry. Process-local, accumulated
	// across adaptive rebuilds like the join counters. Zero when the
	// per-edge ablation path is in use.
	ExpiryBatches int64 `json:"expiry_batches,omitempty"`
	ExpiryEvicted int64 `json:"expiry_evicted,omitempty"`

	// K is the size of the TC decomposition in use (0 for fleets; see
	// Queries for the per-member value).
	K int `json:"k,omitempty"`
	// Reoptimizations counts adaptive engine rebuilds.
	Reoptimizations int `json:"reoptimizations,omitempty"`
	// WALSeq is the write-ahead log's next sequence number (= edges
	// logged across all runs).
	WALSeq int64 `json:"wal_seq,omitempty"`
	// WALSyncs counts WAL fsyncs this process has performed — the
	// denominator of the group-commit coalescing ratio: concurrent
	// feeders sharing fsyncs show WALSyncs growing slower than feeds.
	WALSyncs int64 `json:"wal_syncs,omitempty"`
	// Replayed is how many WAL edges were replayed by the most recent
	// Open (0 on a cold start).
	Replayed int64 `json:"replayed,omitempty"`
	// RoutedFraction is the ratio of engine feeds performed to feeds a
	// naive fan-out would have performed (1 when routing is off).
	RoutedFraction float64 `json:"routed_fraction,omitempty"`
	// FleetWorkers is the number of evaluation shards of a sharded
	// fleet (0 when the fleet evaluates sequentially; fleets only).
	FleetWorkers int `json:"fleet_workers,omitempty"`
	// ShardMembers is the number of live members assigned to each
	// evaluation shard (sharded fleets only).
	ShardMembers []int `json:"shard_members,omitempty"`
	// ShardBusyNs is each evaluation shard's cumulative task execution
	// time in nanoseconds — the per-shard utilization ledger whose skew
	// shows how evenly member work spreads across FleetWorkers (sharded
	// fleets with metrics enabled only).
	ShardBusyNs []int64 `json:"shard_busy_ns,omitempty"`
	// Queries holds per-member snapshots, keyed by query name (fleets
	// only).
	Queries map[string]Stats `json:"queries,omitempty"`
	// Groups aggregates members sharing a QuerySpec.Group, keyed by
	// group name: summed counters plus a group-wide Detection histogram
	// that survives member retirement — the serving layer's per-tenant
	// slice. Nil when no member declares a group (fleets only).
	Groups map[string]Stats `json:"groups,omitempty"`

	// Stages is the per-stage latency breakdown of the ingest pipeline
	// (nil when Config.DisableMetrics is set; engine/fleet-level only —
	// per-member snapshots carry Detection instead).
	Stages *StageStats `json:"stages,omitempty"`
	// Detection is this engine's detection-latency histogram snapshot —
	// match emit wallclock minus triggering-edge arrival wallclock. On
	// fleets every member snapshot in Queries carries its own (the
	// per-query attribution); the fleet-wide aggregate is
	// Stages.Detection.
	Detection *Snapshot `json:"detection,omitempty"`
	// WatermarkLagNs is now minus the stream clock mapped through
	// Config.EventTimeUnit, in nanoseconds (0 when no unit is set;
	// negative when producer timestamps run ahead of this host).
	WatermarkLagNs int64 `json:"watermark_lag_ns,omitempty"`

	// Subscriptions is the number of live Subscribe consumers attached
	// to this engine (fleet-level on fleets; per-member snapshots
	// report zero — members share the fleet's results plane).
	Subscriptions int `json:"subscriptions,omitempty"`
	// SubscriptionDelivered counts matches buffered to subscription
	// channels, summed over all subscriptions past and present.
	SubscriptionDelivered int64 `json:"subscription_delivered,omitempty"`
	// SubscriptionDropped counts matches lost to subscription overflow
	// policies (DropOldest/DropNewest) — the load-shedding ledger. A
	// Block subscriber never contributes here.
	SubscriptionDropped int64 `json:"subscription_dropped,omitempty"`

	// Adaptive, Durable and Fleet report which composable capabilities
	// this engine was opened with, making the snapshot self-describing.
	Adaptive bool `json:"adaptive,omitempty"`
	Durable  bool `json:"durable,omitempty"`
	Fleet    bool `json:"fleet,omitempty"`
}

// Scope names a GET /metrics scope a counter is exposed in; the JSON
// snapshot carries every field.
type Scope uint8

const (
	// Engine, Query and Tenant are the GET /metrics series
	// timingsubg_<Prom>, timingsubg_query_<Prom>{query=...} (one per
	// member snapshot) and timingsubg_tenant_<Prom>{tenant=...} (one per
	// group aggregate).
	Engine Scope = 1 << iota
	Query
	Tenant
)

// Counter is the one declaration of a scalar Stats field as a metric.
// Adding a counter is the line that produces the field's value plus
// one row in Counters.
type Counter struct {
	// Field is the Stats field. Name, its JSON tag, is the wire name.
	Field string
	Name  string
	// Prom is the Prometheus family stem (see Scope), EngineProm the
	// Engine-scope stem where that one differs, and Gauge the family
	// type: a gauge when set, else a counter.
	Prom, EngineProm string
	Gauge            bool
	Scopes           Scope
	// Durable gates the row's series on durable engines.
	Durable bool
	// Sum marks counters that add up across fleet members, into the
	// fleet aggregate and each group's.
	Sum bool

	index int
}

// Counters is the counter table, in exposition order.
var Counters = []Counter{
	{Field: "Matches", Prom: "matches_total", Scopes: Engine | Query | Tenant, Sum: true},
	{Field: "Discarded", Prom: "discarded_edges_total", Scopes: Engine, Sum: true},
	{Field: "Fed", Prom: "fed_edges_total", Scopes: Engine},
	{Field: "InWindow", Prom: "window_edges", Gauge: true, Scopes: Engine | Query, Sum: true},
	{Field: "PartialMatches", Sum: true},
	{Field: "SpaceBytes", Sum: true},
	{Field: "LastTime"},
	{Field: "JoinScanned", Prom: "join_scanned_total", Scopes: Query, Sum: true},
	{Field: "JoinCandidates", Prom: "join_candidates_total", Scopes: Query, Sum: true},
	{Field: "JoinMaterialized", Prom: "join_materialized_total", Scopes: Query, Sum: true},
	{Field: "ExpiryBatches", Prom: "expiry_batches_total", Scopes: Query, Sum: true},
	{Field: "ExpiryEvicted", Prom: "expiry_evicted_total", Scopes: Query, Sum: true},
	{Field: "K"},
	{Field: "Reoptimizations", Sum: true},
	{Field: "WALSeq", Prom: "wal_seq", Scopes: Engine, Durable: true},
	{Field: "WALSyncs", Prom: "wal_syncs_total", Scopes: Engine, Durable: true},
	{Field: "Replayed", Prom: "replayed_edges_total", Scopes: Engine, Durable: true},
	{Field: "RoutedFraction"},
	{Field: "FleetWorkers"},
	{Field: "WatermarkLagNs"},
	{Field: "Subscriptions", Prom: "subscriptions", Gauge: true, Scopes: Engine},
	// Members publish into their fleet's results plane and report no
	// delivery counters of their own, so Sum folds only the per-query
	// attribution the fleet fills in — into groups; the fleet's own
	// totals come from its dispatcher and include retired queries.
	{Field: "SubscriptionDelivered", Prom: "delivered_total", EngineProm: "subscription_delivered_total", Scopes: Engine | Query | Tenant, Sum: true},
	{Field: "SubscriptionDropped", Prom: "dropped_total", EngineProm: "subscription_dropped_total", Scopes: Engine | Query | Tenant, Sum: true},
}

func init() {
	t := reflect.TypeOf(Stats{})
	for i := range Counters {
		c := &Counters[i]
		f, ok := t.FieldByName(c.Field)
		if !ok {
			panic("stats: counter table names unknown field " + c.Field)
		}
		c.index = f.Index[0]
		c.Name, _, _ = strings.Cut(f.Tag.Get("json"), ",")
	}
}

// In reports whether the counter is exposed in scope for an engine of
// st's composition.
func (c *Counter) In(scope Scope, st *Stats) bool {
	return c.Scopes&scope != 0 && (!c.Durable || st.Durable)
}

// PromName is the counter's Prometheus family name in scope.
func (c *Counter) PromName(scope Scope) string {
	switch {
	case scope == Query:
		return "timingsubg_query_" + c.Prom
	case scope == Tenant:
		return "timingsubg_tenant_" + c.Prom
	case c.EngineProm != "":
		return "timingsubg_" + c.EngineProm
	}
	return "timingsubg_" + c.Prom
}

func (c *Counter) field(st *Stats) reflect.Value {
	return reflect.ValueOf(st).Elem().Field(c.index)
}

// Float reads the counter from st as a sample value.
func (c *Counter) Float(st *Stats) float64 {
	v := c.field(st)
	if v.CanFloat() {
		return v.Float()
	}
	return float64(v.Int())
}

// Sum folds one member snapshot's summable counters into dst (the
// fleet aggregate, or a group's).
func Sum(dst, member *Stats) {
	d, m := reflect.ValueOf(dst).Elem(), reflect.ValueOf(member).Elem()
	for i := range Counters {
		if c := &Counters[i]; c.Sum {
			f := d.Field(c.index)
			f.SetInt(f.Int() + m.Field(c.index).Int())
		}
	}
}

// Package client is the Go client for a tsserved server (cmd/tsserved):
// the network serving layer of timingsubg. It also defines the wire
// types of the HTTP protocol, which the server side (internal/server)
// shares, so the JSON contract lives in exactly one place — for the
// stats snapshot that place is the engine's own struct, aliased here.
//
// The protocol is plain HTTP + JSON:
//
//	POST   /queries          register a continuous query   (QueryRequest)
//	GET    /queries          list live queries             (QueryList)
//	DELETE /queries/{name}   retire a query
//	POST   /ingest           feed a batch of edges         (NDJSON of Edge → IngestResult)
//	GET    /subscribe        stream matches                (SSE of MatchEvent)
//
// GET /subscribe filters by query name with repeated verbatim ?query=
// parameters (machine-safe: names may contain commas) or the
// comma-separated ?queries=a,b convenience — no filter streams every
// query, current and future. A plain subscribe starts from now; each
// SSE event's id line is a complete resume token (the subscriber's
// per-query delivery cursors, URL-encoded), and a reconnecting client
// sends it back as the Last-Event-ID header: the server replays
// retained events newer than the cursors and skips everything already
// seen. MatchEvent.Seq is the engine's per-query delivery sequence
// number, stable across durable server restarts.
//
//	GET    /stats            sample live counters          (ServerStats; TenantStats for a tenant key)
//	GET    /healthz          liveness probe (answers as soon as the process listens)
//	GET    /readyz           readiness probe (503 while durable recovery replays)
//	POST   /tenants          register a tenant             (TenantSpec → TenantInfo, admin key)
//	GET    /tenants          list tenants with usage       (TenantList, admin key)
//
// On a multi-tenant server every request carries an API key in the
// Authorization: Bearer header (Client.WithAPIKey); the key selects
// the tenant namespace the call operates in, and query names are
// scoped per tenant. Admission rejections surface as *ErrRateLimited
// (HTTP 429) carrying the server's Retry-After hint; SubscribeOptions
// .Reconnect honors it when re-establishing a stream.
package client

import (
	"timingsubg/internal/stats"
	"timingsubg/internal/tenant"
)

// QueryRequest registers a continuous query with the server.
type QueryRequest struct {
	// Name identifies the query in match events, stats and DELETE.
	Name string `json:"name"`
	// Text is the query graph in the timingsubg text format, one
	// declaration per line:
	//
	//	v <id> <label>            vertex (dense 0-based ids, in order)
	//	e <from> <to> [label]     directed edge (edge ids assigned in order)
	//	o <a> < <b>               timing order: edge a before edge b
	//	# ...                     comment
	Text string `json:"text"`
	// Window is the time-based sliding-window duration, in stream time
	// units. Must be positive; the serving layer routes by labels, so
	// count-based windows are not accepted over the wire.
	Window int64 `json:"window"`
	// Tenant is the owning tenant. It is set by the server from the
	// request's credential — a value sent by a client is overwritten —
	// and appears in durable query registrations and admin listings.
	Tenant string `json:"tenant,omitempty"`
}

// QueryInfo describes one live query. Tenant is empty on a
// single-tenant server; in tenant-scoped listings Name is the wire
// name, in admin listings the full internal roster name.
type QueryInfo struct {
	Name   string `json:"name"`
	Window int64  `json:"window"`
	Tenant string `json:"tenant,omitempty"`
}

// QueryList is the response of GET /queries.
type QueryList struct {
	Queries []QueryInfo `json:"queries"`
}

// Edge is one streaming-graph edge in an ingest batch. Labels travel as
// strings; the server interns them.
type Edge struct {
	From      int64  `json:"from"`
	To        int64  `json:"to"`
	FromLabel string `json:"from_label"`
	ToLabel   string `json:"to_label"`
	// Label is the optional edge label.
	Label string `json:"label,omitempty"`
	// Time is the edge's arrival timestamp; timestamps must be strictly
	// increasing across the whole stream. Zero (or omitted) asks the
	// server to assign the next tick, which is the common mode for
	// firehose producers that don't carry their own clock.
	Time int64 `json:"time,omitempty"`
}

// IngestError locates one rejected line of an ingest batch.
type IngestError struct {
	// Line is the 1-based NDJSON line number within the batch.
	Line int `json:"line"`
	// Message says why the edge was rejected.
	Message string `json:"error"`
}

// IngestResult reports per-request ingest accounting. A batch is
// processed line by line: bad lines are rejected individually and the
// rest of the batch still lands.
type IngestResult struct {
	Accepted int           `json:"accepted"`
	Rejected int           `json:"rejected"`
	Errors   []IngestError `json:"errors,omitempty"`
}

// MatchEdge is one bound data edge of a match, in query-edge order.
type MatchEdge struct {
	// ID is the data edge's stream ID (per-engine arrival index; WAL
	// sequence number in durable mode).
	ID   int64 `json:"id"`
	From int64 `json:"from"`
	To   int64 `json:"to"`
	// Label is the edge label, if any.
	Label string `json:"label,omitempty"`
	Time  int64  `json:"time"`
}

// MatchEvent is one complete time-constrained match, delivered on the
// SSE subscription stream.
type MatchEvent struct {
	// Query names the continuous query that matched — the wire name
	// within its owner's namespace.
	Query string `json:"query"`
	// Tenant is the owning tenant (empty on a single-tenant server).
	// It disambiguates admin streams that span namespaces, where two
	// tenants may both run a query named Query.
	Tenant string `json:"tenant,omitempty"`
	// Seq is the engine's per-query delivery sequence number, from 1.
	// It is stable across durable server restarts (recovery replay
	// re-assigns the same numbers), so consumers that persist their
	// per-query high-water mark can discard duplicates by comparing
	// integers.
	Seq int64 `json:"seq,omitempty"`
	// Edges holds the bound data edges, indexed by query edge.
	Edges []MatchEdge `json:"edges"`
}

// Health is the response of GET /healthz.
type Health struct {
	Status string `json:"status"`
}

// The stats snapshot on the wire is the engine's own declaration
// (internal/stats): the server marshals the struct the engine fills and
// these aliases decode it, so a field, its JSON key and its
// documentation exist once and cannot drift.
type (
	// LatencySnapshot is one latency-histogram summary. Every duration
	// marshals as nanoseconds; an empty histogram is all zeros.
	LatencySnapshot = stats.Snapshot
	// StageStats is the per-stage ingest-pipeline latency breakdown.
	// Stages the server's engine composition does not exercise stay empty.
	StageStats = stats.StageStats
	// EngineStats is the engine's unified snapshot, served under the
	// "fleet.stats" key of GET /stats, with per-query snapshots under
	// Queries and per-tenant aggregates under Groups.
	EngineStats = stats.Stats
)

// ServerStats is the response of GET /stats to the admin key, and to
// every caller of an untenanted server: the fleet's whole snapshot plus
// the counters only the server keeps. The keys are dotted by layer.
type ServerStats struct {
	Fleet EngineStats `json:"fleet.stats"`
	// Ingested counts edges accepted by POST /ingest in this process.
	Ingested int64 `json:"server.ingested"`
	// LastTime is the server's stream clock, durable across restarts.
	LastTime int64 `json:"server.last_time"`
	// QueueDepth is the number of operations waiting for the work loop.
	QueueDepth int `json:"server.queue_depth"`
	// DroppedEvents repeats Fleet.SubscriptionDropped under the key
	// tsbench (benchmark/server.go) reads; it goes once that reader
	// moves to fleet.stats.
	DroppedEvents int64 `json:"server.dropped_events"`
	// Tenants is each tenant's usage, keyed by name (tenancy only).
	Tenants map[string]TenantUsage `json:"server.tenants,omitempty"`
	ReplayStats
}

// ReplayStats is the server's resume log (-replay-buffer): the match
// events it retains for Last-Event-ID resumption. GET /stats carries it
// inside ServerStats and GET /metrics renders the same two fields.
type ReplayStats struct {
	// ReplayEvents is the number of retained events.
	ReplayEvents int64 `json:"server.replay_events"`
	// ReplayBytes is the size of the retained events' records: the
	// compact form the log keeps them in, not their JSON, which is
	// written only when an event is sent.
	ReplayBytes int64 `json:"server.replay_bytes"`
}

// TenantStats is the response of GET /stats to a tenant's key: that
// tenant's slice of the server.
type TenantStats struct {
	Tenant string      `json:"tenant"`
	Usage  TenantUsage `json:"usage"`
	// Stats is the tenant's group aggregate: summed member counters plus
	// a detection histogram that survives query retirement. Nil before
	// the tenant's first query.
	Stats *EngineStats `json:"stats,omitempty"`
	// Queries holds the tenant's per-query snapshots, keyed by the
	// tenant-facing query name.
	Queries map[string]EngineStats `json:"queries,omitempty"`
}

// TenantKey declares one API key of a tenant: the bearer credential
// and its role ("write" — the default — or "read").
type TenantKey struct {
	Key  string `json:"key"`
	Role string `json:"role,omitempty"`
}

// The tenant wire types are the tenant package's own declarations.
type (
	// TenantLimits bounds a tenant's admission. Zero fields are
	// unlimited, so a spec states only what it wants to constrain.
	TenantLimits = tenant.Limits
	// TenantUsage is one tenant's live admission and ownership counters.
	TenantUsage = tenant.Usage
)

// TenantSpec declares one tenant: a tenants-file entry and the POST
// /tenants request body (admin API).
type TenantSpec struct {
	Name   string       `json:"name"`
	Keys   []TenantKey  `json:"keys,omitempty"`
	Limits TenantLimits `json:"limits,omitempty"`
}

// TenantInfo is one tenant's admin-facing snapshot: declared limits
// plus live usage. API keys are never echoed back.
type TenantInfo struct {
	Name   string       `json:"name"`
	Limits TenantLimits `json:"limits"`
	Usage  TenantUsage  `json:"usage"`
}

// TenantList is the response of GET /tenants (admin API).
type TenantList struct {
	Tenants []TenantInfo `json:"tenants"`
}

// Package server is the network serving layer of timingsubg: it hosts a
// dynamic fleet of continuous time-constrained subgraph queries behind
// an HTTP API, turning the library into a standalone service
// (cmd/tsserved). Producers POST batches of timestamped edges, operators
// register and retire queries at runtime without restarting the stream,
// and consumers subscribe to per-query match feeds over SSE.
//
// # Concurrency model
//
// The matching engines follow the paper's single-main-thread dispatch
// model: one edge transaction at a time, in timestamp order. The server
// preserves that by funnelling every mutating operation — ingest
// batches, query registration, query retirement, stat snapshots that
// touch engine internals — through one bounded work queue drained by a
// single loop goroutine. The queue bound is the backpressure mechanism:
// when producers outrun the engine, their requests block in line (and
// eventually time out via their contexts) instead of growing unbounded
// buffers. Pure reads (healthz, subscription fan-out, query listing)
// never enter the queue.
//
// Match delivery rides the engine's own results plane: each SSE
// connection is one timingsubg Engine.Subscribe subscription with a
// query-name filter and the DropOldest overflow policy, so a consumer
// that cannot keep up loses its oldest buffered events (counted in
// server.dropped_events) rather than stalling ingest for the whole
// fleet. Every event carries the engine's per-query delivery sequence
// number; the SSE id line encodes the subscriber's per-query cursors,
// and a reconnecting client presents it as Last-Event-ID to resume —
// events still inside the server's replay log are re-sent, newer ones
// flow from the live subscription, duplicates are skipped by sequence
// number. Because durable engines re-assign the same sequence numbers
// during recovery replay, resumption composes with server restarts.
//
// # Multi-tenancy
//
// With a tenant registry configured (Config.Tenants), the server runs
// a multi-tenant control plane: API keys resolve to tenants, each
// tenant owns a private query namespace, per-tenant token buckets and
// quotas reject over-limit work with 429 + Retry-After *before* it
// reaches the work queue (admission control — reject, never
// queue-then-drop), and the work queue itself becomes a weighted
// fair-share scheduler so one flooding tenant cannot starve another's
// operations. See tenancy.go. With no registry configured, everything
// above is inert and the wire behavior is identical to a single-tenant
// server.
//
// The wire types live in timingsubg/client, which is also the Go client
// for this API.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"timingsubg"
	"timingsubg/client"
	"timingsubg/internal/tenant"
)

// Config tunes a Server.
type Config struct {
	// Labels is the shared label intern table. Nil means a fresh table;
	// pass one to share interning with in-process producers.
	Labels *timingsubg.Labels
	// Routed enables label-based routing for the in-memory fleet (New),
	// so per-edge dispatch cost is proportional to the number of
	// interested queries. NewDurable ignores it with a start-up
	// warning: Open rejects Routed × Durable, so the durable fleet fans
	// out to every query and recovery replay stays deterministic.
	Routed bool
	// Adaptive composes the feedback join-order reoptimizer onto every
	// hosted query engine (see timingsubg.Adaptivity). Composable with
	// both the in-memory and the durable fleet.
	Adaptive *timingsubg.Adaptivity
	// FleetWorkers > 1 shards fleet evaluation across that many workers
	// (see timingsubg.Config.FleetWorkers): each ingest batch is fanned
	// out to the shards concurrently, which is what lets one server
	// host many standing queries at multi-core speed. Composable with
	// every other option; 0 or 1 evaluates sequentially.
	FleetWorkers int
	// SubscriberBuffer is the per-subscriber SSE event buffer (default
	// 256). A subscriber that falls further behind than this loses its
	// oldest buffered events (counted in server.dropped_events).
	SubscriberBuffer int
	// ReplayBuffer is the resume log: how many recent match events,
	// across all queries, are retained for Last-Event-ID resumption
	// (default: SubscriberBuffer). A reconnect older than the log loses
	// the overwritten events. With the default, an unfiltered stream
	// never lags past the log: its buffer holds as many events as the
	// log does.
	ReplayBuffer int
	// QueueDepth bounds the serialized work queue (default 128
	// outstanding operations). Producers beyond the bound block — the
	// backpressure contract. With tenancy enabled the bound is per
	// tenant: one backlogged tenant fills only its own slice of the
	// queue.
	QueueDepth int

	// Tenants enables the multi-tenant control plane: API-key auth,
	// per-tenant namespaces, admission control and fair-share
	// scheduling (see the package comment). Nil disables tenancy —
	// every request is the implicit single tenant and the wire
	// behavior is unchanged.
	Tenants *tenant.Registry
	// AdminKey, with Tenants set, is the bearer credential for the
	// POST/GET /tenants admin API; it also grants the full (cross-
	// tenant) view of /queries, /stats and /subscribe. Empty disables
	// the admin API.
	AdminKey string

	// Logger, when non-nil, receives structured request logs (method,
	// path, status, duration) and per-batch ingest accounting at Debug
	// level; slow-op warnings also route through it. Nil keeps the
	// server silent (slow ops then warn on the default slog logger,
	// when a threshold is set).
	Logger *slog.Logger
	// SlowOpThreshold fires a slow-operation report for every feed,
	// batch or synchronous delivery exceeding it (see
	// timingsubg.Config.SlowOpThreshold).
	SlowOpThreshold time.Duration
	// EventTimeUnit declares how edge timestamps map to wallclock (see
	// timingsubg.Config.EventTimeUnit); it enables the event-time lag
	// histogram and watermark lag gauge on GET /metrics.
	EventTimeUnit time.Duration
}

func (c *Config) norm() {
	if c.Labels == nil {
		c.Labels = timingsubg.NewLabels()
	}
	if c.FleetWorkers < 0 {
		// Negative worker counts are rejected by the engine; treat them
		// as "sequential" here so New's no-error contract holds.
		c.FleetWorkers = 0
	}
	if c.SubscriberBuffer <= 0 {
		c.SubscriberBuffer = 256
	}
	if c.ReplayBuffer <= 0 {
		c.ReplayBuffer = c.SubscriberBuffer
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
}

// op is one serialized unit of work. ctx is the submitting request's
// context: if it is already dead when the op reaches the front of the
// queue, the op is skipped — the caller was told it failed, so running
// it anyway would make retries double-apply (duplicate ingest batches).
type op struct {
	ctx  context.Context
	fn   func()
	done chan struct{}
}

// queryMeta is the server-side record of one live query: who owns it
// and what it is called on the wire. Internal roster names are never
// string-parsed — this map (keyed by internal name, under qmu) is the
// only translation.
type queryMeta struct {
	tenant string // owning tenant; "" when tenancy is off or unowned
	wire   string // tenant-facing name (= internal name when unowned)
	window int64  // window in wire units
	events *queryEvents
}

// newQueryMeta is the roster entry of a query, with its event encoder.
func newQueryMeta(owner, wire string, window int64) queryMeta {
	return queryMeta{tenant: owner, wire: wire, window: window,
		events: &queryEvents{head: eventHead(wire, owner)}}
}

// Server hosts one query fleet behind the HTTP API. Create with New or
// NewDurable, mount Handler, and Close on shutdown.
type Server struct {
	cfg      Config
	labels   *timingsubg.Labels
	labelEnc *labelJSON // the labels' JSON literals, for match events
	fl       timingsubg.Fleet
	replay   *replayStore
	tenants  *tenant.Registry // nil = tenancy disabled
	adminKey string
	// sched is the bounded work queue: one flow per tenant, weighted
	// start-time fair queueing on the drain side, so admission and
	// service are both isolated per tenant. Untenanted servers run one
	// flow ("") and behave like a plain bounded FIFO.
	sched    *tenant.Sched[op]
	stopped  chan struct{}
	loopDone chan struct{}
	closer   sync.Once
	closeErr error

	qmu     sync.RWMutex
	queries map[string]queryMeta // internal query name → meta
	// retired holds the encoder of each deleted query until its name is
	// registered again, so deliveries still queued on a stream when the
	// DELETE lands render under the wire name and owner they were
	// published with. It is bounded by the number of distinct deleted
	// names.
	retired map[string]*queryEvents

	queryDir string // query registration directory; "" when not durable
	stateDir string // durability root (label table home); "" when not durable
	// persistedLabels is the intern-table size already snapshotted to
	// disk; loop-owned once the server runs.
	persistedLabels int
	lastTime        int64 // stream clock; loop-owned once the server runs
	ingested        atomic.Int64
	mux             http.Handler
}

// New returns a server over a fresh in-memory dynamic fleet. Matching
// state lives and dies with the process; see NewDurable for the
// WAL-backed variant.
func New(cfg Config) *Server {
	cfg.norm()
	s := newServer(cfg)
	fl, err := timingsubg.OpenFleet(timingsubg.Config{
		Dynamic:         true,
		Routed:          cfg.Routed,
		Adaptive:        cfg.Adaptive,
		FleetWorkers:    cfg.FleetWorkers,
		EventTimeUnit:   cfg.EventTimeUnit,
		SlowOpThreshold: cfg.SlowOpThreshold,
		OnSlowOp:        s.slowOp(),
		OnDelivery:      s.record,
	})
	if err != nil {
		// Unreachable: an empty dynamic in-memory config cannot fail.
		panic(err)
	}
	s.fl = fl
	s.finish()
	return s
}

// NewDurable returns a server whose fleet journals every ingested edge
// through the write-ahead log in opts.Dir and checkpoints each query's
// window, so a killed and restarted server recovers its queries (from
// the registry under Dir/queries), its window state and its stream
// clock, then continues matching. Delivery across a restart is
// at-least-once.
func NewDurable(cfg Config, opts timingsubg.Durability) (*Server, error) {
	cfg.norm()
	s := newServer(cfg)
	s.queryDir = filepath.Join(opts.Dir, "queries")
	s.stateDir = opts.Dir

	// Restore the label intern table before anything re-interns: WAL
	// records and checkpoints reference label IDs, so the string→ID
	// assignment must match the previous run exactly.
	if err := loadLabels(s.stateDir, s.labels); err != nil {
		return nil, err
	}
	s.persistedLabels = s.labels.Len()

	// Tenants created at runtime through the admin API are durable too;
	// restore them before queries so owners exist when their queries
	// load. The operator's static tenants file wins over a stale
	// persisted spec of the same name.
	if s.tenants != nil {
		if err := loadTenants(filepath.Join(s.stateDir, "tenants"), s.tenants, s.sched); err != nil {
			return nil, err
		}
	}

	reqs, err := LoadQueries(s.queryDir)
	if err != nil {
		return nil, err
	}
	specs := make([]timingsubg.QuerySpec, 0, len(reqs))
	for _, req := range reqs {
		spec, err := ParseQueryRequest(req, s.labels)
		if err != nil {
			return nil, fmt.Errorf("server: persisted %w", err)
		}
		// The internal roster name is derived from the recorded owner,
		// never from the current tenancy mode: checkpoint directories and
		// the replay log's index are keyed by it, so it must be identical
		// across restarts even if tenancy was toggled in between.
		internal := req.Name
		if req.Tenant != "" {
			internal = req.Tenant + ":" + req.Name
		}
		meta := newQueryMeta(req.Tenant, req.Name, req.Window)
		if s.tenants == nil {
			// Tenancy off: the roster is addressed verbatim, so a scoped
			// name IS the wire name and nobody owns it.
			meta = newQueryMeta("", internal, req.Window)
		} else if req.Tenant != "" {
			owner, ok := s.tenants.Get(req.Tenant)
			if !ok {
				// Durable state outlives a tenants file that dropped the
				// owner: re-register it key-less and unlimited so its
				// queries keep matching (unreachable by credential until
				// the admin re-adds keys).
				owner, err = s.tenants.Create(tenant.Spec{Name: req.Tenant})
				if err != nil {
					return nil, fmt.Errorf("server: restore owner of query %q: %w", req.Name, err)
				}
				s.sched.SetWeight(owner.Name(), owner.Weight())
			}
			// Recovered queries count toward the quota gauge but are never
			// dropped for exceeding a since-tightened MaxQueries.
			owner.RestoreQuery()
			spec.Group = req.Tenant
		}
		spec.Name = internal
		specs = append(specs, spec)
		s.queries[internal] = meta
	}
	if cfg.Routed {
		log := cfg.Logger
		if log == nil {
			log = slog.Default()
		}
		log.Warn("Routed ignored: the durable fleet broadcasts",
			"reason", "timingsubg.Open rejects Routed with Durable — recovery replays every logged record to every member")
	}
	fl, err := timingsubg.OpenFleet(timingsubg.Config{
		Queries:         specs,
		Dynamic:         true,
		Adaptive:        cfg.Adaptive,
		FleetWorkers:    cfg.FleetWorkers,
		EventTimeUnit:   cfg.EventTimeUnit,
		SlowOpThreshold: cfg.SlowOpThreshold,
		OnSlowOp:        s.slowOp(),
		Durable:         &opts,
		// OnDelivery is installed before recovery, so WAL replay rebuilds
		// the resume log with the pre-crash sequence numbers.
		OnDelivery: s.record,
	})
	if err != nil {
		return nil, err
	}
	s.fl = fl
	if lt := fl.Stats().LastTime; lt > 0 {
		s.lastTime = int64(lt)
	}
	s.finish()
	return s, nil
}

func newServer(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		labels:   cfg.Labels,
		labelEnc: newLabelJSON(cfg.Labels),
		replay:   newReplayStore(cfg.ReplayBuffer),
		tenants:  cfg.Tenants,
		adminKey: cfg.AdminKey,
		sched:    tenant.NewSched[op](cfg.QueueDepth),
		stopped:  make(chan struct{}),
		loopDone: make(chan struct{}),
		queries:  make(map[string]queryMeta),
		retired:  make(map[string]*queryEvents),
	}
	if s.tenants != nil {
		for _, name := range s.tenants.Names() {
			if t, ok := s.tenants.Get(name); ok {
				s.sched.SetWeight(name, t.Weight())
			}
		}
	}
	return s
}

// finish wires the routes once the fleet exists, then starts the work
// loop.
func (s *Server) finish() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /queries", s.handleAddQuery)
	mux.HandleFunc("GET /queries", s.handleListQueries)
	mux.HandleFunc("DELETE /queries/{name}", s.handleRemoveQuery)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /subscribe", s.handleSubscribe)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleProm)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /tenants", s.handleCreateTenant)
	mux.HandleFunc("GET /tenants", s.handleListTenants)
	s.mux = mux
	if s.cfg.Logger != nil {
		s.mux = requestLog(s.cfg.Logger, mux)
	}

	go s.run()
}

// slowOp returns the engine slow-operation hook: route reports through
// the configured logger, or nil to keep the engine's default (a
// default-logger slog warning).
func (s *Server) slowOp() func(timingsubg.SlowOp) {
	log := s.cfg.Logger
	if log == nil {
		return nil
	}
	return func(op timingsubg.SlowOp) {
		log.Warn("slow op",
			"op", op.Op, "query", op.Query, "edges", op.Edges,
			"total", op.Total, "wal", op.WAL, "fanout", op.Fanout)
	}
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so SSE streaming keeps
// working behind the logging wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestLog is the structured access-log middleware: one Info line per
// request with method, path, status and wall time.
func requestLog(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		log.Info("request",
			"method", r.Method, "path", r.URL.Path,
			"status", sw.status, "duration", time.Since(start))
	})
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// run drains the work queue; it is the single goroutine that touches
// engine state. The scheduler hands it the queued flow with the least
// virtual service, and each executed op is charged back at its
// measured wall time — that pair is what makes the loop fair-share:
// over any busy interval, each backlogged tenant's ops get loop time
// proportional to the tenant's weight.
func (s *Server) run() {
	defer close(s.loopDone)
	for {
		o, flow, ok := s.sched.Next()
		if !ok {
			return // closed and drained
		}
		if o.ctx.Err() == nil {
			start := time.Now()
			o.fn()
			s.sched.Charge(flow, time.Since(start))
		}
		close(o.done)
	}
}

// errClosed reports an operation submitted after Close.
var errClosed = errors.New("server: closed")

// do runs fn on the work loop as the nil tenant (internal work, or a
// request on an untenanted server).
func (s *Server) do(ctx context.Context, fn func()) error {
	return s.doAs(ctx, nil, fn)
}

// doAs submits fn to t's fair-share flow and waits for the loop to run
// it. Submission blocks while the flow's slice of the bounded queue is
// full — that is the backpressure path, and it is per tenant: another
// tenant's backlog never blocks this Submit — and gives up when ctx
// expires.
func (s *Server) doAs(ctx context.Context, t *tenant.Tenant, fn func()) error {
	o := op{ctx: ctx, fn: fn, done: make(chan struct{})}
	if err := s.sched.Submit(ctx, t.Name(), o); err != nil {
		if errors.Is(err, tenant.ErrSchedClosed) {
			return errClosed
		}
		return err
	}
	select {
	case <-o.done:
		return nil
	case <-ctx.Done():
		// The loop sees the dead ctx and skips the op when it surfaces;
		// Close drains every admitted op, so done always closes.
		return ctx.Err()
	}
}

// Close stops the work loop and shuts the fleet down (checkpointing
// it, in durable mode); closing the fleet ends every SSE subscription
// through the engine's results plane. It is safe to call more than
// once.
func (s *Server) Close() error {
	s.closer.Do(func() {
		close(s.stopped)
		// Closing the scheduler rejects new submissions and lets the
		// loop drain the ops already admitted, so their callers unblock.
		s.sched.Close()
		<-s.loopDone
		s.closeErr = s.fl.Close()
	})
	return s.closeErr
}

// persistLabels snapshots the intern table if it has grown since the
// last snapshot. Durable-mode ops call it before the first WAL append
// or query-file write that could reference a newly interned ID. Only
// the work loop calls it.
func (s *Server) persistLabels() error {
	if s.stateDir == "" {
		return nil
	}
	n := s.labels.Len()
	if n == s.persistedLabels {
		return nil
	}
	if err := saveLabels(s.stateDir, s.labels); err != nil {
		return err
	}
	s.persistedLabels = n
	return nil
}

// record is the engine's synchronous delivery hook: retain the match
// event in the resume log, which serves Last-Event-ID resumption after
// a reconnect or a durable restart. Live fan-out happens on the engine
// side (each SSE handler holds its own subscription and encodes its
// frames from the deliveries). The event is kept as its compact record
// (see appendRecord), encoded outside the log's lock into the query's
// scratch, which the log copies into its arena: record allocates
// nothing.
func (s *Server) record(dv timingsubg.Delivery) {
	ev := s.eventsOf(dv.Query)
	ev.buf = appendRecord(ev.buf[:0], dv.Match)
	s.replay.add(dv.Query, ev.head, dv.Seq, ev.buf)
}

// eventsOf returns query's event encoder. The internal roster name
// is translated back to the owner's wire name, plus the owning tenant,
// so an admin firehose stream stays unambiguous when two tenants use
// the same wire name. A deleted query keeps its encoder until the name
// is registered again. A name the server does not know is its own wire
// name, unowned, and gets a fresh encoder.
func (s *Server) eventsOf(query string) *queryEvents {
	s.qmu.RLock()
	meta, ok := s.queries[query]
	ev := s.retired[query]
	s.qmu.RUnlock()
	if ok {
		return meta.events
	}
	if ev != nil {
		return ev
	}
	return &queryEvents{head: eventHead(query, "")}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleAddQuery(w http.ResponseWriter, r *http.Request) {
	t, ok := s.authTenant(w, r, tenant.RoleWrite)
	if !ok {
		return
	}
	var req client.QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad query request: %v", err)
		return
	}
	// Ownership is the credential's, never the request body's.
	req.Tenant = t.Name()
	spec, err := ParseQueryRequest(req, s.labels)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	internal := s.scopedName(t, req.Name)
	spec.Name = internal
	// Group = owning tenant: the engine aggregates the tenant's members
	// into Stats.Groups[tenant], including the group-wide detection
	// histogram ("" — untenanted — declares no group).
	spec.Group = t.Name()
	// Quota admission happens before the work queue, like all admission.
	if !t.AcquireQuery() {
		rateLimited(w, 0, "tenant %q: query quota exceeded (max %d)", t.Name(), t.Limits().MaxQueries)
		return
	}
	var opErr error
	status := http.StatusCreated
	err = s.doAs(r.Context(), t, func() {
		if s.fl.HasQuery(internal) {
			status = http.StatusConflict
			opErr = fmt.Errorf("query %q already registered", req.Name)
			return
		}
		// Labels the query text interned must hit disk before any state
		// that references their IDs (query file, checkpoints).
		if opErr = s.persistLabels(); opErr != nil {
			status = http.StatusInternalServerError
			return
		}
		if opErr = s.fl.AddQuery(spec); opErr != nil {
			status = http.StatusBadRequest
			return
		}
		if s.queryDir != "" {
			if err := saveQueryFile(s.queryDir, internal, req); err != nil {
				// The query is live but would not survive a restart;
				// surface that as a server error and roll it back.
				s.fl.RemoveQuery(internal)
				status = http.StatusInternalServerError
				opErr = err
				return
			}
		}
		s.qmu.Lock()
		s.queries[internal] = newQueryMeta(t.Name(), req.Name, req.Window)
		delete(s.retired, internal)
		s.qmu.Unlock()
	})
	if err != nil {
		t.ReleaseQuery()
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if opErr != nil {
		t.ReleaseQuery()
		httpError(w, status, "%v", opErr)
		return
	}
	writeJSON(w, status, client.QueryInfo{Name: req.Name, Tenant: t.Name(), Window: req.Window})
}

func (s *Server) handleRemoveQuery(w http.ResponseWriter, r *http.Request) {
	t, ok := s.authTenant(w, r, tenant.RoleWrite)
	if !ok {
		return
	}
	wire := r.PathValue("name")
	internal := s.scopedName(t, wire)
	var opErr error
	var owner string
	status := http.StatusNoContent
	err := s.doAs(r.Context(), t, func() {
		// Cross-tenant deletion is rejected by construction: a foreign
		// query's internal name is outside the caller's prefix, so the
		// lookup below cannot see it (404, same as a nonexistent name —
		// existence itself is namespaced).
		if !s.fl.HasQuery(internal) {
			status = http.StatusNotFound
			opErr = fmt.Errorf("unknown query %q", wire)
			return
		}
		if opErr = s.fl.RemoveQuery(internal); opErr != nil {
			status = http.StatusInternalServerError
			return
		}
		if s.queryDir != "" {
			if err := removeQueryFile(s.queryDir, internal); err != nil {
				status = http.StatusInternalServerError
				opErr = err
				return
			}
		}
		s.qmu.Lock()
		meta := s.queries[internal]
		owner = meta.tenant
		delete(s.queries, internal)
		if meta.events != nil {
			meta.events.retired.Store(true)
			s.retired[internal] = meta.events
		}
		s.qmu.Unlock()
		// The engine already ended the subscriptions filtered to this
		// name and reset its delivery sequence; drop its events from the
		// resume log so they cannot resurface under a reused name.
		s.replay.drop(internal)
	})
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if opErr != nil {
		httpError(w, status, "%v", opErr)
		return
	}
	// Return the owner's quota slot (the admin may be deleting on a
	// tenant's behalf, so resolve the recorded owner, not the caller).
	if s.tenants != nil && owner != "" {
		if ot, ok := s.tenants.Get(owner); ok {
			ot.ReleaseQuery()
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListQueries(w http.ResponseWriter, r *http.Request) {
	t, ok := s.authTenant(w, r, tenant.RoleRead)
	if !ok {
		return
	}
	names := s.fl.Names()
	s.qmu.RLock()
	list := client.QueryList{Queries: make([]client.QueryInfo, 0, len(names))}
	for _, n := range names {
		meta, known := s.queries[n]
		if !known {
			meta = queryMeta{wire: n}
		}
		if t != nil && meta.tenant != t.Name() {
			continue // another tenant's — invisible, not just forbidden
		}
		name := n // admin and untenanted callers see roster names
		if t != nil {
			name = meta.wire
		}
		list.Queries = append(list.Queries, client.QueryInfo{Name: name, Tenant: meta.tenant, Window: meta.window})
	}
	s.qmu.RUnlock()
	writeJSON(w, http.StatusOK, list)
}

// ingestLine is one decoded NDJSON line with labels already interned —
// decode and interning run off the work loop (the intern table is
// concurrency-safe), so the serialized section does only engine work.
type ingestLine struct {
	line     int
	edge     timingsubg.Edge
	autoTime bool
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	t, ok := s.authTenant(w, r, tenant.RoleWrite)
	if !ok {
		return
	}
	// Admission control runs here, before anything is read or queued:
	// an over-limit request is rejected while it is still cheap — never
	// admitted to the bounded work queue and then dropped. One POST
	// costs one batch token, charged up front and not refunded (see
	// tenant.AdmitBatch on why refunds would hide the limit).
	if ok, wait := t.AdmitBatch(); !ok {
		rateLimited(w, time.Duration(wait), "tenant %q: batch rate limit exceeded", t.Name())
		return
	}
	var res client.IngestResult
	var batch []ingestLine
	body := &countingReader{r: r.Body}
	defer func() { t.AddIngestBytes(body.n) }()
	sc := bufio.NewScanner(http.MaxBytesReader(w, body, 64<<20))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line, taken := 0, 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		// One edge token per non-empty line, charged before the line is
		// even parsed. On exhaustion: stop reading immediately — the rest
		// of the body never comes off the wire, and bytes-read accounting
		// reflects that — refund the tokens this request took (nothing
		// will be fed, so a retry after Retry-After can admit the same
		// batch) and answer 429.
		if ok, wait := t.AdmitEdge(); !ok {
			t.RefundEdges(taken)
			rateLimited(w, time.Duration(wait),
				"tenant %q: edge rate limit exceeded at line %d (%d bytes read, nothing ingested)",
				t.Name(), line, body.n)
			return
		}
		taken++
		e, err := s.decodeLine(raw)
		if err != nil {
			res.Rejected++
			res.Errors = append(res.Errors, client.IngestError{Line: line, Message: err.Error()})
			continue
		}
		batch = append(batch, ingestLine{line: line, edge: e, autoTime: e.Time == 0})
	}
	// A body that cannot be read to its end feeds nothing, so the edge
	// tokens its lines took go back, as on the 429 path. A body over
	// the size cap is 413; any other read failure is the client's 400.
	if err := sc.Err(); err != nil {
		t.RefundEdges(taken)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "read ingest body: %v", err)
		return
	}

	var opErr error
	err := s.doAs(r.Context(), t, func() {
		// Any label this batch interned must hit disk before the first
		// WAL append that references its ID.
		if opErr = s.persistLabels(); opErr != nil {
			return
		}
		// Resolve timestamps against the stream clock first, so the
		// whole batch can ride the engine's FeedBatch fast path (one
		// WAL write and sync, one fleet lock) instead of per-edge Feed.
		edges := make([]timingsubg.Edge, 0, len(batch))
		lines := make([]int, 0, len(batch))
		clock := s.lastTime
		for _, item := range batch {
			e := item.edge
			if item.autoTime {
				e.Time = timingsubg.Timestamp(clock + 1) // server-assigned tick
			} else if int64(e.Time) <= clock {
				res.Rejected++
				res.Errors = append(res.Errors, client.IngestError{
					Line:    item.line,
					Message: fmt.Sprintf("out of order: time %d after %d (timestamps must be strictly increasing)", e.Time, clock),
				})
				continue
			}
			clock = int64(e.Time)
			edges = append(edges, e)
			lines = append(lines, item.line)
		}
		// FeedBatch stops at the first failing edge; reject that line
		// and resume with the rest so one bad edge cannot shadow the
		// batch's tail (the per-line accounting contract). Only
		// ErrOutOfOrder is a per-edge fault; anything else (WAL write
		// failure, checkpoint failure) is a server-side error — it must
		// surface as a 5xx, not masquerade as a bad line.
		off := 0
		for off < len(edges) {
			n, ferr := s.fl.FeedBatch(edges[off:])
			if n > 0 {
				s.lastTime = int64(edges[off+n-1].Time)
				res.Accepted += n
				s.ingested.Add(int64(n))
			}
			if ferr == nil {
				break
			}
			if off+n >= len(edges) || !errors.Is(ferr, timingsubg.ErrOutOfOrder) {
				opErr = ferr
				return
			}
			res.Rejected++
			res.Errors = append(res.Errors, client.IngestError{Line: lines[off+n], Message: ferr.Error()})
			off += n + 1
		}
	})
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if opErr != nil {
		httpError(w, http.StatusInternalServerError, "%v", opErr)
		return
	}
	if log := s.cfg.Logger; log != nil {
		log.Debug("ingest", "accepted", res.Accepted, "rejected", res.Rejected)
	}
	writeJSON(w, http.StatusOK, res)
}

// subscribeNames extracts the query filter of a subscribe request.
// ?query=a is verbatim and repeatable — the machine-safe form, since
// query names may legally contain commas; ?queries=a,b is the
// comma-separated human convenience (repeatable too). Empty means
// every query, current and future.
func subscribeNames(r *http.Request) []string {
	var names []string
	seen := map[string]bool{}
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	q := r.URL.Query()
	for _, name := range q["query"] {
		add(name)
	}
	for _, list := range q["queries"] {
		for _, name := range strings.Split(list, ",") {
			add(strings.TrimSpace(name))
		}
	}
	return names
}

// parseResumeToken decodes a Last-Event-ID header into per-query
// resume cursors. The token is the URL-encoded form the server itself
// emits on every event's id line (query names escaped, values are the
// per-query delivery sequence numbers), so it is self-contained: the
// client never parses it, only echoes the last one it saw.
func parseResumeToken(token string) (map[string]int64, error) {
	if token == "" {
		return nil, nil
	}
	vals, err := url.ParseQuery(token)
	if err != nil {
		return nil, fmt.Errorf("bad Last-Event-ID %q: %v", token, err)
	}
	out := make(map[string]int64, len(vals))
	for name, ss := range vals {
		if len(ss) == 0 {
			continue
		}
		n, err := strconv.ParseInt(ss[len(ss)-1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad Last-Event-ID cursor for %q: %v", name, err)
		}
		out[name] = n
	}
	return out, nil
}

// cursorSet is one SSE connection's per-query cursors, kept in encoded
// form: parseResumeToken's inverse, emitted as the id line of every
// event so any single event id is a complete resume point. The bytes
// are exactly url.Values.Encode of the name → seq map — keys sorted by
// raw name, each escaped with url.QueryEscape — but a name is escaped
// once, when first seen, so an event costs one slot update and one
// append of the token, with no allocation.
type cursorSet struct {
	names []string // raw query names, ascending
	keys  []string // keys[i] is url.QueryEscape(names[i])
	seqs  []int64
}

func newCursorSet(after map[string]int64) *cursorSet {
	c := &cursorSet{}
	for name, seq := range after {
		c.set(name, seq)
	}
	return c
}

// set makes seq name's cursor.
func (c *cursorSet) set(name string, seq int64) {
	i, found := slices.BinarySearch(c.names, name)
	if found {
		c.seqs[i] = seq
		return
	}
	c.names = slices.Insert(c.names, i, name)
	c.keys = slices.Insert(c.keys, i, url.QueryEscape(name))
	c.seqs = slices.Insert(c.seqs, i, seq)
}

// appendToken appends the encoded cursors to b.
func (c *cursorSet) appendToken(b []byte) []byte {
	for i, key := range c.keys {
		if i > 0 {
			b = append(b, '&')
		}
		b = append(b, key...)
		b = append(b, '=')
		b = strconv.AppendInt(b, c.seqs[i], 10)
	}
	return b
}

// appendEventStart records seq as query's cursor and appends the start
// of the event's SSE frame to b: the id line carrying every cursor, the
// event line and the data field's name. The match event and the
// frame's end ("\n\n") follow.
func (c *cursorSet) appendEventStart(b []byte, query string, seq int64) []byte {
	c.set(query, seq)
	b = append(b, "id: "...)
	b = c.appendToken(b)
	return append(b, "\nevent: match\ndata: "...)
}

// sseFrames builds one SSE connection's frames, each appended into one
// reused buffer. Live frames are encoded from the delivery, so a live
// event takes neither the resume log's lock nor, once its query's head
// is cached here, the roster's.
type sseFrames struct {
	s       *Server
	cursors *cursorSet
	events  map[string]*queryEvents // the head of each query seen
	buf     []byte                  // the frame being built
}

func newSSEFrames(s *Server, after map[string]int64) *sseFrames {
	return &sseFrames{s: s, cursors: newCursorSet(after), events: make(map[string]*queryEvents)}
}

// head returns query's event head. A cached head of a retired query is
// looked up again: the name may have been registered since by another
// owner.
func (f *sseFrames) head(query string) []byte {
	ev := f.events[query]
	if ev == nil || ev.retired.Load() {
		ev = f.s.eventsOf(query)
		f.events[query] = ev
	}
	return ev.head
}

// live returns a live delivery's frame, valid until the next call.
func (f *sseFrames) live(dv timingsubg.Delivery) []byte {
	f.buf = f.cursors.appendEventStart(f.buf[:0], dv.Query, dv.Seq)
	f.buf = f.s.labelEnc.appendMatchEvent(f.buf, f.head(dv.Query), dv.Seq, dv.Match)
	f.buf = append(f.buf, "\n\n"...)
	return f.buf
}

// resumed returns a replayed event's frame, valid until the next call.
func (f *sseFrames) resumed(ev resumeEvent) []byte {
	f.buf = f.cursors.appendEventStart(f.buf[:0], ev.query, ev.seq)
	f.buf = f.s.labelEnc.appendRecordEvent(f.buf, ev.head, ev.seq, ev.rec)
	f.buf = append(f.buf, "\n\n"...)
	return f.buf
}

// handleSubscribe is one SSE consumer: an Engine.Subscribe
// subscription (query-name filter, DropOldest overflow) bridged onto
// the HTTP response, preceded by a replay of logged events the
// Last-Event-ID cursor proves the client has not seen.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	t, ok := s.authTenant(w, r, tenant.RoleRead)
	if !ok {
		return
	}
	wireNames := subscribeNames(r)
	names := make([]string, len(wireNames))
	for i, wire := range wireNames {
		// A foreign query's internal name is outside the caller's
		// namespace, so cross-tenant subscription fails here exactly like
		// a nonexistent name.
		names[i] = s.scopedName(t, wire)
		if !s.fl.HasQuery(names[i]) {
			httpError(w, http.StatusNotFound, "unknown query %q", wireNames[i])
			return
		}
	}
	// An unfiltered stream from a tenant is scoped to its namespace —
	// the tenant's own queries, current AND future — by prefix, which
	// the dispatcher evaluates per event (it follows the roster).
	prefix := ""
	if t != nil && len(names) == 0 {
		prefix = t.Name() + ":"
	}
	after, err := parseResumeToken(r.Header.Get("Last-Event-ID"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	if !t.AcquireSubscription() {
		rateLimited(w, 0, "tenant %q: subscription quota exceeded (max %d)",
			t.Name(), t.Limits().MaxSubscriptions)
		return
	}
	defer t.ReleaseSubscription()
	// The live subscription attaches before the log is read, with the
	// client's cursors as AfterSeq: an event published in between lands
	// in both and is emitted once (the replay-duplicate check below), an
	// event published before sits only in the log, an event after only
	// in the subscription. DropOldest keeps one stalled consumer from
	// ever blocking ingest.
	sub, err := s.fl.Subscribe(timingsubg.SubscribeOptions{
		Queries:  names,
		Prefix:   prefix,
		Buffer:   s.cfg.SubscriberBuffer,
		Policy:   timingsubg.DropOldest,
		AfterSeq: after,
	})
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	defer sub.Cancel()
	// Re-check after subscribing: a DELETE racing in between would have
	// retired its subscriptions before ours attached, leaving a
	// filtered subscription bound to dead names — an endless silent
	// stream, or a feed of a future query that reuses the name.
	if len(names) > 0 {
		live := false
		for _, name := range names {
			if s.fl.HasQuery(name) {
				live = true
				break
			}
		}
		if !live {
			httpError(w, http.StatusNotFound, "no live query among %v", wireNames)
			return
		}
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": subscribed queries=%s\n\n", strings.Join(wireNames, ","))

	// One frame buffer per connection: each event is appended into it
	// and goes out in a single Write.
	sse := newSSEFrames(s, after)
	emit := func(frame []byte) bool {
		_, werr := w.Write(frame)
		return werr == nil
	}

	// Replay: logged events newer than the client's cursors, in
	// delivery order. Only on resume — a request with no Last-Event-ID
	// starts from now, per SSE convention (a client that wants retained
	// history can present explicit zero cursors, e.g. "pp=0"). replayed
	// keeps, per query, the highest seq the replay sent: the live
	// subscription attached first, so it may deliver those events
	// again, and that is the only way a duplicate can arise.
	replayed := make(map[string]int64)
	if after != nil {
		admit := func(name string) bool { return strings.HasPrefix(name, prefix) }
		if len(names) > 0 {
			admit = func(name string) bool { return slices.Contains(names, name) }
		}
		for _, ev := range s.replay.resume(after, admit) {
			if !emit(sse.resumed(ev)) {
				return
			}
			replayed[ev.query] = ev.seq
		}
	}
	flusher.Flush()

	// Live: the engine subscription, until it ends (query retired,
	// server closing) or the client goes away. The subscription's
	// AfterSeq already filtered the client's cursors, so an event is
	// suppressed only as a replay duplicate; a query re-registered under
	// a used name restarts at seq 1 and its events flow (the cursor goes
	// down with them). The flush waits until the channel is empty, so a
	// burst goes out as one chunk while a lone event is flushed at once.
	// Every delivery's match goes back to the dispatcher once its frame
	// is built, so the next publish overwrites it instead of cloning.
	for {
		select {
		case dv, ok := <-sub.C():
			if !ok {
				return // filtered queries retired, or server closing
			}
			top, dup := replayed[dv.Query]
			if dup && dv.Seq > top {
				delete(replayed, dv.Query) // live has passed the replay
				dup = false
			}
			sent := dup || emit(sse.live(dv))
			sub.Release(dv)
			if !sent {
				return
			}
			if len(sub.C()) == 0 {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		case <-s.stopped:
			// Long-lived streams must not hold up graceful shutdown:
			// http.Server.Shutdown waits for every handler to return.
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	t, ok := s.authTenant(w, r, tenant.RoleRead)
	if !ok {
		return
	}
	if r.URL.Query().Has("metric") {
		httpError(w, http.StatusBadRequest, "?metric= is not supported: GET /stats serves one typed snapshot (client.ServerStats, or client.TenantStats for a tenant key)")
		return
	}
	// A tenant gets its own slice: usage, group aggregate, per-query
	// snapshots. The whole view is for admins (and the untenanted
	// server, where everything belongs to everyone).
	if t != nil {
		s.handleTenantStats(w, r, t)
		return
	}
	// Sampling runs on the work loop so the partial-match walks never
	// race an in-flight edge transaction and the stream clock is read
	// by its owner.
	var out client.ServerStats
	err := s.do(r.Context(), func() {
		st := s.fl.Stats()
		out = client.ServerStats{
			Fleet:         st,
			Ingested:      s.ingested.Load(),
			LastTime:      s.lastTime,
			QueueDepth:    s.sched.Len(),
			DroppedEvents: st.SubscriptionDropped,
			Tenants:       s.usageByTenant(),
			ReplayStats:   s.replay.stats(),
		}
	})
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is pure liveness: 200 for as long as the process can
// answer at all, even while shutting down. Whether the server should
// receive traffic is /readyz's question.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, client.Health{Status: "ok"})
}

// handleReadyz is readiness: 200 only while the server is accepting
// work. It flips to 503 the moment shutdown begins, so load balancers
// drain ahead of the listener closing. The other not-ready window —
// boot, while durable recovery replays the WAL — is covered by Gate,
// which answers for these paths before the Server exists.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.stopped:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, client.Health{Status: "shutting-down"})
	default:
		writeJSON(w, http.StatusOK, client.Health{Status: "ready"})
	}
}

// LastTime returns the server's stream clock (for tests and embedding).
func (s *Server) LastTime() timingsubg.Timestamp {
	return timingsubg.Timestamp(s.lastTime)
}

// EngineStats returns the hosted fleet's counter-only snapshot — the
// hook for embedders and the tsserved shutdown summary. Safe to call
// while the server runs; the walking fields stay zero.
func (s *Server) EngineStats() timingsubg.Stats {
	return timingsubg.FastStats(s.fl)
}

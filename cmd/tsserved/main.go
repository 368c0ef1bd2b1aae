// Command tsserved serves a dynamic fleet of continuous time-constrained
// subgraph queries over HTTP — the timingsubg library as a standalone
// service. Producers POST timestamped edges, operators register and
// retire queries at runtime, and consumers stream matches over SSE.
//
// Usage:
//
//	tsserved -listen :8080
//	tsserved -listen :8080 -routed
//	tsserved -listen :8080 -wal ./state -sync-every 64
//	tsserved -listen :8080 -adaptive -wal ./state   # adaptive + durable compose
//	tsserved -listen :8080 -fleet-workers 4         # shard evaluation across 4 workers
//
// Endpoints (wire contract in timingsubg/client):
//
//	POST   /queries          register a query  {"name","text","window"}
//	GET    /queries          list live queries
//	DELETE /queries/{name}   retire a query
//	POST   /ingest           NDJSON edge batch → per-line accounting
//	GET    /subscribe        SSE match stream (?queries=a,b filters;
//	                         no filter streams every query)
//	GET    /stats            live counters as one JSON snapshot (client.ServerStats)
//	GET    /metrics          Prometheus text exposition: per-stage latency
//	                         histograms, per-query detection latency and
//	                         counters (served off the work queue, so a
//	                         scrape never waits behind ingest)
//	GET    /healthz          liveness (200 as soon as the process listens)
//	GET    /readyz           readiness (503 while durable recovery replays)
//	POST   /tenants          register a tenant (admin key)
//	GET    /tenants          list tenants with live usage (admin key)
//
// Multi-tenancy: -tenants-file loads a static tenant registry (JSON:
// {"tenants":[{"name","keys":[{"key","role"}],"limits":{...}}]}),
// -admin-key arms the /tenants admin API, and either flag switches the
// server into tenant mode — every request then resolves its
// Authorization: Bearer key to a tenant whose namespace scopes query
// names, whose token buckets gate ingest *before* the work queue
// (429 + Retry-After), and whose weight sets its fair share of the
// serialized work loop. -default-tenant names the tenant that
// unauthenticated requests act as, preserving single-tenant clients
// unchanged. Without any of these flags tenancy is off and the wire
// contract is exactly the pre-tenancy one.
//
// Observability: -log-level enables structured request/ingest logs,
// -slow-op-threshold warns on slow feeds and deliveries with a
// per-stage breakdown, -event-time-unit maps edge timestamps to
// wallclock (enabling event-time lag and watermark lag), and -pprof
// mounts the net/http/pprof profiling plane under /debug/pprof/.
//
// Each SSE event carries the engine's per-query delivery sequence
// number and an id line that is a complete resume token: a client that
// reconnects with Last-Event-ID resumes where it left off — events
// still inside the server-wide replay log (the last -replay-buffer
// events of all queries) are re-sent, already-seen ones are skipped. A subscriber that falls behind its
// buffer loses its oldest events rather than stalling ingest.
//
// With -wal, every ingested edge is journaled through the write-ahead
// log and each query's window is checkpointed, so a killed and
// restarted tsserved recovers its query fleet and window state, then
// continues matching. Recovery replay re-assigns the same delivery
// sequence numbers, so subscribers resuming across the restart
// deduplicate by sequence number. Without -wal the state is in-memory
// only.
//
// On SIGINT/SIGTERM the daemon stops accepting requests, drains
// in-flight operations, checkpoints (durable mode) and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"timingsubg"
	"timingsubg/internal/server"
	"timingsubg/internal/tenant"
)

// parseLogLevel maps the -log-level flag onto a slog handler; "" means
// no request/ingest logging at all.
func parseLogLevel(s string) (*slog.Logger, error) {
	if s == "" {
		return nil, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(s)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", s)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

func main() {
	listen := flag.String("listen", ":8080", "HTTP listen address")
	routed := flag.Bool("routed", false, "label-based routing: dispatch each edge only to interested queries (in-memory only: ignored with a start-up warning under -wal, where the fleet broadcasts)")
	fleetWorkers := flag.Int("fleet-workers", 0, "shard query evaluation across this many workers (0 or 1 = sequential; composable with -routed, -adaptive and -wal, though not with -routed and -wal together)")
	adaptive := flag.Bool("adaptive", false, "adaptive join orders: reoptimize each query's TC decomposition from observed stream statistics (composable with -wal)")
	reoptEvery := flag.Int("reoptimize-every", 0, "adaptive mode: check join orders after every n ingested edges (0 = 1024)")
	minGain := flag.Float64("min-gain", 0, "adaptive mode: estimated cost ratio required before a rebuild (0 = 2.0)")
	walDir := flag.String("wal", "", "durability directory: WAL + checkpoints + query registry; empty = in-memory only")
	ckEvery := flag.Int("checkpoint-every", 4096, "durable mode: checkpoint after every n ingested edges")
	syncEvery := flag.Int("sync-every", 0, "durable mode: fsync the WAL after every n appends (0 disables); concurrent feeders group-commit into shared fsyncs")
	syncInterval := flag.Duration("wal-sync-interval", 0, "durable mode: background WAL group commit at this period — appends become durable within one interval without blocking feeders (0 disables)")
	segBytes := flag.Int64("segment-bytes", 0, "durable mode: WAL segment rotation size (0 = 4 MiB)")
	subBuffer := flag.Int("subscriber-buffer", 256, "per-subscriber SSE event buffer before load shedding")
	replayBuffer := flag.Int("replay-buffer", 0, "resume log: match events retained across all queries for Last-Event-ID resumption (0 = subscriber-buffer)")
	queueDepth := flag.Int("queue-depth", 128, "bounded work queue: max outstanding serialized operations")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown deadline")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (CPU, heap, goroutine profiles)")
	logLevel := flag.String("log-level", "", "structured request/ingest logging: debug, info, warn or error (empty = off)")
	slowOp := flag.Duration("slow-op-threshold", 0, "warn (with a per-stage breakdown) on any feed, batch or delivery slower than this (0 = off)")
	eventUnit := flag.Duration("event-time-unit", 0, "edge timestamps are this many wallclock units since the Unix epoch (enables event-time lag and watermark lag; 0 = off)")
	tenantsFile := flag.String("tenants-file", "", "multi-tenant mode: JSON tenant registry (names, API keys, limits)")
	adminKey := flag.String("admin-key", "", "multi-tenant mode: bearer key for the /tenants admin API and raw-roster access")
	defaultTenant := flag.String("default-tenant", "", "multi-tenant mode: tenant that unauthenticated requests act as (compatibility; created if not in -tenants-file)")
	flag.Parse()
	if *fleetWorkers < 0 {
		log.Fatalf("tsserved: -fleet-workers must be non-negative, got %d", *fleetWorkers)
	}
	logger, err := parseLogLevel(*logLevel)
	if err != nil {
		log.Fatalf("tsserved: %v", err)
	}

	cfg := server.Config{
		Routed:           *routed,
		FleetWorkers:     *fleetWorkers,
		SubscriberBuffer: *subBuffer,
		ReplayBuffer:     *replayBuffer,
		QueueDepth:       *queueDepth,
		Logger:           logger,
		SlowOpThreshold:  *slowOp,
		EventTimeUnit:    *eventUnit,
	}
	if *tenantsFile != "" || *adminKey != "" || *defaultTenant != "" {
		reg := tenant.NewRegistry()
		if *tenantsFile != "" {
			if err := reg.LoadFile(*tenantsFile); err != nil {
				log.Fatalf("tsserved: %v", err)
			}
		}
		if *defaultTenant != "" {
			if _, ok := reg.Get(*defaultTenant); !ok {
				if _, err := reg.Create(tenant.Spec{Name: *defaultTenant}); err != nil {
					log.Fatalf("tsserved: -default-tenant: %v", err)
				}
			}
			if err := reg.SetAnonymous(*defaultTenant); err != nil {
				log.Fatalf("tsserved: -default-tenant: %v", err)
			}
		}
		cfg.Tenants = reg
		cfg.AdminKey = *adminKey
		log.Printf("tsserved: multi-tenant mode: %d tenants", len(reg.Names()))
	}
	if *adaptive {
		cfg.Adaptive = &timingsubg.Adaptivity{
			ReoptimizeEvery: *reoptEvery,
			MinGain:         *minGain,
		}
	}
	// The listener opens before the serving core is built: during a
	// durable recovery replay the gate answers /healthz 200 (the process
	// is alive) and everything else 503 + Retry-After (not ready yet), so
	// orchestrator probes can already distinguish "booting" from "dead".
	gate := server.NewGate()
	httpSrv := &http.Server{Addr: *listen, Handler: gate}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("tsserved: listening on %s", *listen)
		errc <- httpSrv.ListenAndServe()
	}()

	var srv *server.Server
	if *walDir != "" {
		srv, err = server.NewDurable(cfg, timingsubg.Durability{
			Dir:             *walDir,
			CheckpointEvery: *ckEvery,
			SyncEvery:       *syncEvery,
			SyncInterval:    *syncInterval,
			SegmentBytes:    *segBytes,
		})
		if err != nil {
			log.Fatalf("tsserved: open durable state: %v", err)
		}
		log.Printf("tsserved: durable state in %s", *walDir)
	} else {
		srv = server.New(cfg)
		log.Printf("tsserved: in-memory state (no -wal)")
	}

	handler := srv.Handler()
	if *pprofOn {
		// The profiling plane mounts beside the API, explicitly — the
		// DefaultServeMux side effect of importing net/http/pprof is not
		// relied on, so profiles are only reachable when asked for.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("tsserved: pprof on /debug/pprof/")
	}
	gate.Set(handler)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("tsserved: serve: %v", err)
		}
	case <-ctx.Done():
		log.Printf("tsserved: shutting down")
		// Close the serving core first: it drains admitted operations,
		// checkpoints (durable mode) and ends SSE subscriptions, so the
		// HTTP drain below isn't held hostage by long-lived streams.
		if err := srv.Close(); err != nil {
			log.Printf("tsserved: close: %v", err)
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("tsserved: drain: %v", err)
		}
	}
	// The shutdown summary shares the canonical Snapshot.String() one-line
	// form with tsrun's per-edge latency report.
	if st := srv.EngineStats(); st.Stages != nil {
		log.Printf("tsserved: ingest latency: %s", st.Stages.Ingest)
		log.Printf("tsserved: detection latency: %s", st.Stages.Detection)
	}
	if err := srv.Close(); err != nil {
		log.Printf("tsserved: close: %v", err)
		os.Exit(1)
	}
	fmt.Println("tsserved: bye")
}

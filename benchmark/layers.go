package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"timingsubg"
	"timingsubg/client"
	"timingsubg/internal/checkpoint"
	"timingsubg/internal/core"
	"timingsubg/internal/dispatch"
	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/query"
	"timingsubg/internal/router"
	tsserver "timingsubg/internal/server"
	"timingsubg/internal/stats"
	"timingsubg/internal/tenant"
	"timingsubg/internal/wal"
)

// The traced layer run. The harness itself composes the layers' public
// functions in the server's order — decode + intern, tenant admission,
// WAL append (durable workload only), route, and per member window
// push, batched expiry, insert and publish — on one goroutine, over the
// same pre-encoded batches the server is fed, with a span around every
// call. Spans inside the program are a later issue; until then this is
// where "which layer does the work on this workload" is answered.

// layer indexes the per-layer ledger.
type layer int

const (
	lRequest    layer = iota // one per batch; its self time is the harness's own glue
	lServer                  // NDJSON decode + Labels.Intern
	lTenant                  // AdmitBatch + AdmitEdge
	lWAL                     // AppendBatch (+ its fsync), checkpoint-time Sync/TruncateFront
	lCheckpoint              // Save + GC
	lRouter                  // Route
	lGraph                   // Stream.Push
	lInsert                  // Engine.Insert
	lExpire                  // Engine.DeleteBatch
	lDispatch                // Dispatcher.Publish
	lDrain                   // the harness emptying its subscription; not a layer of the program
	numLayers
)

var layerNames = [numLayers]string{
	"request", "server.decode", "tenant.admit", "wal.append", "checkpoint.save",
	"router.route", "graph.push", "core.insert", "core.expire", "dispatch.publish", "loadgen.drain",
}

// span is one traced call: which batch (request) it belongs to, which
// span caused it, and when it ran, in ns since the run began.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Batch  int32  `json:"batch"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerSum is a layer's ledger row: calls, items crossing the boundary
// (edges, matches or evictions, whichever the layer handles), total
// time and self time (total minus the part child spans cover).
type layerSum struct {
	Calls    int64 `json:"calls"`
	Children int64 `json:"children"` // spans opened directly under this layer's spans
	Items    int64 `json:"items"`
	NS       int64 `json:"ns"`
	SelfNS   int64 `json:"self_ns"`
}

// corrected is the layer's self time with the tracer's own cost taken
// out: inner ns of every span land inside its own interval, outer ns in
// its parent's (see calibrateSpans).
func (s layerSum) corrected(inner, outer float64) float64 {
	return max(0, float64(s.SelfNS)-float64(s.Calls)*inner-float64(s.Children)*outer)
}

type frame struct {
	l       layer
	id      int32
	start   int64
	childNS int64
}

// tracer records spans in memory. Every call is timed and lands in the
// ledger; span records themselves are kept for the first keep batches
// only, which bounds the trace file while the ledger stays complete.
type tracer struct {
	on     bool
	t0     time.Time
	keep   int
	batch  int32
	nextID int32
	stack  []frame
	spans  []span
	sums   [numLayers]layerSum
}

func (t *tracer) begin(l layer) {
	if !t.on {
		return
	}
	t.nextID++
	t.stack = append(t.stack, frame{l: l, id: t.nextID, start: int64(time.Since(t.t0))})
}

func (t *tracer) end(items int) {
	if !t.on {
		return
	}
	now := int64(time.Since(t.t0))
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	s := &t.sums[f.l]
	s.Calls++
	s.Items += int64(items)
	s.NS += d
	s.SelfNS += d - f.childNS
	var parent int32
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childNS += d
		parent = t.stack[n-1].id
		t.sums[t.stack[n-1].l].Children++
	}
	if int(t.batch) < t.keep {
		t.spans = append(t.spans, span{ID: f.id, Parent: parent, Batch: t.batch, Name: layerNames[f.l], Start: f.start, End: now})
	}
}

// calibrateSpans measures what one span costs: how much of it falls
// inside the span's own interval (inner) and how much in the enclosing
// span (outer), from empty spans under one parent. A call to
// core.Insert that discards its edge takes about as long as the clock
// reads around it, so per-call times are reported net of this.
func calibrateSpans() (inner, outer float64) {
	const n = 200000
	tr := &tracer{on: true, t0: time.Now()}
	tr.begin(lRequest)
	for i := 0; i < n; i++ {
		tr.begin(lDrain)
		tr.end(0)
	}
	tr.end(0)
	return float64(tr.sums[lDrain].NS) / n, float64(tr.sums[lRequest].SelfNS) / n
}

// member is one query of the recomposed fleet.
type member struct {
	name   string
	stream *graph.Stream
	eng    *core.Engine
	ckDir  string
}

// layerRun is the outcome of one recomposition pass.
type layerRun struct {
	wall    time.Duration
	edges   int64
	sums    [numLayers]layerSum
	spans   []span
	sets    map[string]multiset
	syncNS  int64 // fsync time inside wal.append, from the log's own histogram
	saves   int64
	partIns int64
	partDel int64
	ckDirs  []string
}

// recompose runs batches [0, nb) through the layers. dir is scratch
// space for the durable workload's log and checkpoints.
func recompose(in *inputs, nb int, spansOn bool, dir string) (*layerRun, error) {
	w := in.w
	tr := &tracer{on: spansOn, t0: time.Now(), keep: 32}
	run := &layerRun{sets: map[string]multiset{}}

	tn, err := tenant.NewRegistry().Create(benchTenant())
	if err != nil {
		return nil, err
	}

	disp := dispatch.New()
	defer disp.Close()
	// The buffer holds any one batch's matches; the harness empties it
	// after every batch, so nothing is ever dropped.
	sub := disp.Subscribe(dispatch.Options{Buffer: 1 << 16, Policy: dispatch.DropOldest})

	var rt *router.Router
	if w.routed {
		rt = router.New()
	}
	members := make([]*member, len(in.queries))
	for i, nq := range in.queries {
		m := &member{name: nq.name, stream: graph.NewStream(graph.Timestamp(w.window))}
		m.eng = core.New(nq.q, core.Config{OnMatch: func(mt *match.Match) {
			tr.begin(lDispatch)
			disp.Publish(m.name, mt)
			tr.end(1)
		}})
		members[i] = m
		if rt != nil {
			rt.Add(i, nq.q)
		}
	}

	var log *wal.Log
	var syncHist stats.AtomicHistogram
	if w.durable {
		log, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{SyncEvery: 1, SyncHist: &syncHist})
		if err != nil {
			return nil, err
		}
		defer log.Close()
		for _, m := range members {
			m.ckDir = filepath.Join(dir, "ck", m.name)
			run.ckDirs = append(run.ckDirs, m.ckDir)
		}
	}

	edges := make([]graph.Edge, 0, batchEdges)
	targets := make([]int, 0, len(members))
	sinceCkpt := 0
	start := time.Now()
	for b := 0; b < nb; b++ {
		tr.batch = int32(b)
		tr.begin(lRequest)

		// tenant: one batch token, then one edge token per line. The
		// server interleaves the per-line charge with the decode; the
		// work is the same.
		body := in.bodies[b]
		tr.begin(lTenant)
		if ok, _ := tn.AdmitBatch(); !ok {
			return nil, fmt.Errorf("layer run: batch %d refused admission", b)
		}
		for i := 0; i < batchEdges; i++ {
			if ok, _ := tn.AdmitEdge(); !ok {
				return nil, fmt.Errorf("layer run: batch %d refused admission", b)
			}
		}
		tn.AddIngestBytes(int64(len(body)))
		tr.end(batchEdges)

		// server: the handler's scan + json.Unmarshal + Intern.
		tr.begin(lServer)
		edges = edges[:0]
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			var e client.Edge
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				return nil, fmt.Errorf("layer run: batch %d: %w", b, err)
			}
			edges = append(edges, graph.Edge{
				From: graph.VertexID(e.From), To: graph.VertexID(e.To),
				FromLabel: in.labels.Intern(e.FromLabel), ToLabel: in.labels.Intern(e.ToLabel),
				EdgeLabel: in.labels.Intern(e.Label), Time: graph.Timestamp(e.Time),
			})
		}
		tr.end(len(edges))

		if log != nil {
			tr.begin(lWAL)
			if _, _, err := log.AppendBatch(edges); err != nil {
				return nil, err
			}
			tr.end(len(edges))
		}

		for i := range edges {
			e := edges[i]
			targets = targets[:0]
			if rt != nil {
				tr.begin(lRouter)
				rt.Route(e, func(id int) { targets = append(targets, id) })
				tr.end(len(targets))
			} else {
				for id := range members {
					targets = append(targets, id)
				}
			}
			for _, id := range targets {
				m := members[id]
				tr.begin(lGraph)
				stored, expired, err := m.stream.Push(e)
				tr.end(1)
				if err != nil {
					return nil, fmt.Errorf("layer run: %s: %w", m.name, err)
				}
				if len(expired) > 0 {
					tr.begin(lExpire)
					m.eng.DeleteBatch(expired)
					tr.end(len(expired))
				}
				tr.begin(lInsert)
				m.eng.Insert(stored)
				tr.end(1)
			}
		}

		if log != nil {
			sinceCkpt += len(edges)
			if sinceCkpt >= 4096 {
				sinceCkpt = 0
				tr.begin(lWAL)
				err := log.Sync()
				tr.end(0)
				if err != nil {
					return nil, err
				}
				next := log.Seq()
				for _, m := range members {
					st := m.eng.Stats()
					tr.begin(lCheckpoint)
					err := checkpoint.Save(m.ckDir, checkpoint.Checkpoint{NextSeq: next, Window: graph.Timestamp(w.window),
						Matches: st.Matches.Load(), Discarded: st.Discarded.Load(), Edges: m.stream.InWindow()})
					if err == nil {
						err = checkpoint.GC(m.ckDir, 2)
					}
					tr.end(1)
					if err != nil {
						return nil, err
					}
					run.saves++
				}
				tr.begin(lWAL)
				log.SetCheckpointLSN(next)
				err = log.TruncateFront(next)
				tr.end(0)
				if err != nil {
					return nil, err
				}
			}
		}

		tr.begin(lDrain)
		n := 0
	drain:
		for {
			select {
			case dv := <-sub.C():
				ms := run.sets[dv.Query]
				ms.add(hashMatch(dv.Match))
				run.sets[dv.Query] = ms
				n++
			default:
				break drain
			}
		}
		tr.end(n)
		tr.end(len(edges)) // request
		run.edges += int64(len(edges))
	}
	run.wall = time.Since(start)
	run.sums, run.spans = tr.sums, tr.spans
	run.syncNS = int64(syncHist.Snapshot().Sum)
	for _, m := range members {
		st := m.eng.Stats()
		run.partIns += st.PartialIns.Load()
		run.partDel += st.PartialDel.Load()
	}
	if dropped := disp.Dropped(); dropped > 0 {
		return nil, fmt.Errorf("layer run: subscription dropped %d matches", dropped)
	}
	return run, nil
}

// fleetSpecs is the workload's query set as fleet members.
func fleetSpecs(in *inputs) []timingsubg.QuerySpec {
	specs := make([]timingsubg.QuerySpec, len(in.queries))
	for i, nq := range in.queries {
		specs[i] = timingsubg.QuerySpec{Name: nq.name, Query: nq.q,
			Options: timingsubg.Options{Window: timingsubg.Timestamp(in.w.window)}}
	}
	return specs
}

// fleetFeed times the real fleet engine — the root package's Open with
// metrics off — over the same decoded batches, and returns ns per edge
// and the matches it reported.
func fleetFeed(in *inputs, nb, workers int) (nsPerEdge float64, matches int64, err error) {
	eng, err := timingsubg.Open(timingsubg.Config{
		Queries: fleetSpecs(in), Routed: in.w.routed, FleetWorkers: workers, DisableMetrics: true,
	})
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	start := time.Now()
	for b := 0; b < nb; b++ {
		if _, err := eng.FeedBatch(in.edges[b*batchEdges : (b+1)*batchEdges]); err != nil {
			return 0, 0, err
		}
	}
	d := time.Since(start)
	return float64(d.Nanoseconds()) / float64(nb*batchEdges), eng.Stats().Matches, nil
}

// serve runs one request of the bench tenant through h into an
// in-memory recorder.
func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+tenantKey)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// handlerCell times the HTTP handler alone: the same bodies through
// server.Handler().ServeHTTP on a tenanted server with no queries, into
// an in-memory recorder — decode, admission and the work queue with no
// socket and no engine behind them.
func handlerCell(in *inputs, nb int) (nsPerEdge float64, err error) {
	reg := tenant.NewRegistry()
	if _, err := reg.Create(benchTenant()); err != nil {
		return 0, err
	}
	srv := tsserver.New(tsserver.Config{Tenants: reg})
	defer srv.Close()
	h := srv.Handler()
	start := time.Now()
	for b := 0; b < nb; b++ {
		if rec := serve(h, http.MethodPost, "/ingest", in.bodies[b]); rec.Code != http.StatusOK {
			return 0, fmt.Errorf("handler cell: batch %d: %d %s", b, rec.Code, rec.Body.String())
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(nb*batchEdges), nil
}

// sseSink is the subscriber of serveCell: a ResponseWriter that counts
// the events written to it and keeps nothing.
type sseSink struct {
	header   http.Header
	events   atomic.Int64
	attached atomic.Bool // the server's ": subscribed" comment was written
}

func (w *sseSink) Header() http.Header { return w.header }
func (w *sseSink) WriteHeader(int)     {}
func (w *sseSink) Flush()              {}
func (w *sseSink) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte(": subscribed")) {
		w.attached.Store(true)
	}
	w.events.Add(int64(bytes.Count(p, []byte("event: match\n"))))
	return len(p), nil
}

// serveCell runs the workload through the server's public handler in
// this process — tenancy on, queries registered, batches POSTed into an
// in-memory recorder, and with subscribe one SSE stream written to a
// sink — and returns the process CPU time it took per edge and the
// events the stream carried. The difference between the two variants is
// what delivering matches over SSE costs, with no socket involved.
func serveCell(in *inputs, nb int, subscribe bool, expect int64) (cpuNsPerEdge float64, events int64, err error) {
	reg := tenant.NewRegistry()
	if _, err := reg.Create(benchTenant()); err != nil {
		return 0, 0, err
	}
	srv := tsserver.New(tsserver.Config{Tenants: reg, Routed: in.w.routed, FleetWorkers: in.w.workers, SubscriberBuffer: 65536})
	defer srv.Close()
	h := srv.Handler()
	for _, nq := range in.queries {
		body, _ := json.Marshal(client.QueryRequest{Name: nq.name, Text: nq.text, Window: in.w.window})
		if rec := serve(h, http.MethodPost, "/queries", body); rec.Code != http.StatusCreated {
			return 0, 0, fmt.Errorf("serve cell: register %s: %d %s", nq.name, rec.Code, rec.Body.String())
		}
	}
	sink := &sseSink{header: http.Header{}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamDone := make(chan struct{})
	if subscribe {
		req := httptest.NewRequest(http.MethodGet, "/subscribe", nil).WithContext(ctx)
		req.Header.Set("Authorization", "Bearer "+tenantKey)
		go func() {
			defer close(streamDone)
			h.ServeHTTP(sink, req)
		}()
		// The handler writes its confirmation comment once the engine
		// subscription is attached; nothing fed after that is missed.
		for !sink.attached.Load() {
			select {
			case <-streamDone:
				return 0, 0, fmt.Errorf("serve cell: GET /subscribe ended before it attached")
			case <-time.After(100 * time.Microsecond):
			}
		}
	} else {
		close(streamDone)
	}
	cpu0 := selfCPU()
	for b := 0; b < nb; b++ {
		if rec := serve(h, http.MethodPost, "/ingest", in.bodies[b]); rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("serve cell: batch %d: %d %s", b, rec.Code, rec.Body.String())
		}
	}
	if subscribe {
		for deadline := time.Now().Add(20 * time.Second); sink.events.Load() < expect && time.Now().Before(deadline); {
			time.Sleep(200 * time.Microsecond)
		}
	}
	cpu := selfCPU() - cpu0
	cancel()
	<-streamDone
	return float64(cpu.Nanoseconds()) / float64(nb*batchEdges), sink.events.Load(), nil
}

// walCell appends the batches to a fresh log that is never truncated,
// for the exact bytes per edge, then times a full replay of it.
func walCell(in *inputs, nb int, dir string) (bytesPerEdge, replayNsPerEdge float64, err error) {
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return 0, 0, err
	}
	for b := 0; b < nb; b++ {
		if _, _, err := log.AppendBatch(in.edges[b*batchEdges : (b+1)*batchEdges]); err != nil {
			log.Close()
			return 0, 0, err
		}
	}
	if err := log.Close(); err != nil {
		return 0, 0, err
	}
	n := float64(nb * batchEdges)
	size := dirSize(dir)
	start := time.Now()
	next, err := wal.Replay(dir, 0, func(int64, graph.Edge) error { return nil })
	if err != nil {
		return 0, 0, err
	}
	if next != int64(nb*batchEdges) {
		return 0, 0, fmt.Errorf("wal cell: replayed to LSN %d, appended %d", next, nb*batchEdges)
	}
	return float64(size) / n, float64(time.Since(start).Nanoseconds()) / n, nil
}

// decomposeCell times query.Decompose over the organic queries and
// returns the total in ms and the mean decomposition size k.
func decomposeCell(in *inputs) (ms, meanK float64) {
	var k int
	start := time.Now()
	for _, nq := range in.queries[1:] {
		k += query.Decompose(nq.q).K()
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6, float64(k) / float64(len(in.queries)-1)
}

// traceFile is what benchmark/out/trace_<workload>.json holds.
type traceFile struct {
	// SpanInnerNS and SpanOuterNS are the tracer's own cost per span
	// (calibrateSpans); ledger rows here are raw, metrics are net of it.
	SpanInnerNS float64             `json:"span_inner_ns"`
	SpanOuterNS float64             `json:"span_outer_ns"`
	Workload    string              `json:"workload"`
	Seed        int64               `json:"seed"`
	Batches     int                 `json:"batches"`
	Edges       int64               `json:"edges"`
	WallNS      int64               `json:"wall_ns"`
	Note        string              `json:"note"`
	Ledger      map[string]layerSum `json:"ledger"`
	Spans       []span              `json:"spans"`
}

func writeTrace(path string, in *inputs, nb int, run *layerRun, inner, outer float64) error {
	tf := traceFile{SpanInnerNS: inner, SpanOuterNS: outer, Workload: in.w.name, Seed: in.seed, Batches: nb, Edges: run.edges, WallNS: run.wall.Nanoseconds(),
		Note:   "ledger covers every call of every batch; spans are kept for the first 32 batches",
		Ledger: map[string]layerSum{}, Spans: run.spans}
	for l := layer(0); l < numLayers; l++ {
		tf.Ledger[layerNames[l]] = run.sums[l]
	}
	sort.Slice(tf.Spans, func(i, j int) bool { return tf.Spans[i].ID < tf.Spans[j].ID })
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

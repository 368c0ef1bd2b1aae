package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"timingsubg/client"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: what the last line of standard
// output carries, plus notes for the human reading along.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
	broken    []string          // metrics set to NaN or ±Inf
}

// set records a metric. A value that is not finite is a broken
// measurement — nothing was accepted, nothing arrived — and is kept as
// such: runOnce fails the run rather than report it as a number.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.broken = append(r.broken, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// finish settles the verdict of a run once every metric is set.
func (r *result) finish() error {
	if len(r.broken) > 0 {
		sort.Strings(r.broken)
		return fmt.Errorf("broken measurement, not finite: %s", strings.Join(r.broken, ", "))
	}
	r.Correct = r.Failed == 0
	return nil
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// runConfig says how to run one workload once.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	// setups overrides how often a measured run sets the server up
	// (0 = the default, setups); the smoke test sets up once.
	setups int
	d      dirs
	bin    string
}

// Phase shares of -seconds. A measured run splits it between the closed
// and the open loop; a traced run feeds the server for half as long and
// spends the rest of its time in the in-process layer passes.
const (
	closedShare      = 0.5
	openShare        = 0.5
	traceClosedShare = 0.3
	traceOpenShare   = 0.2
	// setups is how many times a measured run sets the server up; the
	// median is reported as setup_s and the last one is measured on.
	setups = 9
)

// scratch holds one run's temporary paths under benchmark/out; the run
// removes them on every exit path.
type scratch struct {
	log, tenants, wal string
}

// live is a server set up for measurement: spawned, ready, queries
// registered, subscriber attached, warm-up fed.
type live struct {
	srv  *server
	sub  *subscriber
	feed *feeder
}

func (l *live) stop() {
	if l.sub != nil {
		l.sub.close()
	}
	if l.feed != nil {
		l.feed.close()
	}
	l.srv.kill()
}

// serverFlags is the workload's flag set, with the WAL directory added
// for the durable one.
func serverFlags(w *workload, sc scratch) []string {
	flags := append([]string(nil), w.flags...)
	if w.durable {
		flags = append(flags, "-wal", sc.wal)
	}
	return flags
}

// setUp is the set-up phase: spawn → /readyz → register queries →
// subscribe → feed the warm-up batches. It returns how long that took;
// go build is not part of it.
func setUp(c runConfig, sc scratch, in *inputs, p plan) (*live, time.Duration, error) {
	os.RemoveAll(sc.wal)
	start := time.Now()
	srv, err := spawn(c.bin, sc.tenants, sc.log, serverFlags(c.w, sc))
	if err != nil {
		return nil, 0, err
	}
	l := &live{srv: srv}
	fail := func(err error) (*live, time.Duration, error) {
		l.stop()
		return nil, 0, err
	}
	if err := srv.waitReady(30 * time.Second); err != nil {
		return fail(err)
	}
	for _, q := range in.queries {
		if err := srv.register(q, c.w.window); err != nil {
			return fail(err)
		}
	}
	if l.sub, err = subscribe(srv, p.total()); err != nil {
		return fail(err)
	}
	if l.feed, err = newFeeder(srv); err != nil {
		return fail(err)
	}
	for _, b := range in.bodies[:p.warm] {
		if err := l.feed.post(b); err != nil {
			return fail(err)
		}
	}
	return l, time.Since(start), nil
}

// observed is everything one server run measured, before any metric is
// derived from it.
type observed struct {
	setupS      []float64
	marks       []mark // closed loop: its start and the end of each slice
	closedEdges float64
	period      time.Duration
	detectMs    []float64 // sorted; one per open-loop batch whose canary arrived
	lateMs      []float64 // sorted; how late each open-loop send left
	loadgenCPU  time.Duration
	// server process and runtime, before and after the closed loop, and
	// at quiesce (ms2 after a forced GC; traced runs only)
	pr0, pr1, pr2 procSample
	ms0, ms1, ms2 memStats
	stats         serverStats
	sseBytes      int64
	sseEvents     int64
	walDisk       int64
	recoverS      float64
	replayed      int64
}

// mark is the server process and the feeder's count at one slice
// boundary of the closed loop.
type mark struct {
	at       time.Time
	proc     procSample
	accepted int64
}

// slices derives one value per closed-loop slice from the marks around
// it.
func (o *observed) slices(f func(a, b mark) float64) []float64 {
	v := make([]float64, 0, len(o.marks))
	for i := 1; i < len(o.marks); i++ {
		v = append(v, f(o.marks[i-1], o.marks[i]))
	}
	return v
}

func edgesPerS(a, b mark) float64 {
	return float64(b.accepted-a.accepted) / b.at.Sub(a.at).Seconds()
}

func cpuUsPerEdge(a, b mark) float64 {
	return float64(b.proc.cpu-a.proc.cpu) / 1e3 / float64(b.accepted-a.accepted)
}

// runOnce runs one workload once and verifies its outputs.
func runOnce(c runConfig) (*result, error) {
	w := c.w
	res := &result{Workload: w.name, Seed: c.seed, Trace: c.trace, Metrics: map[string]metric{}}
	p, nSetups := planFor(w, c.seconds, closedShare, openShare), setups
	if c.setups > 0 {
		nSetups = c.setups
	}
	if c.trace {
		p, nSetups = planFor(w, c.seconds, traceClosedShare, traceOpenShare), 1
	}
	tag := fmt.Sprintf("%s-%d", w.name, os.Getpid())
	sc := scratch{
		log:     filepath.Join(c.d.out, "tsserved_"+w.name+".log"),
		tenants: filepath.Join(c.d.out, "tenants-"+tag+".json"),
		wal:     filepath.Join(c.d.out, "wal-"+tag),
	}
	scrub := func() {
		os.Remove(sc.tenants)
		os.RemoveAll(sc.wal)
	}
	defer onExit(scrub)()
	defer scrub()
	if err := writeTenantsFile(sc.tenants); err != nil {
		return nil, err
	}

	// lap notes how long each step of the run took, for whoever sizes
	// the run against the driver's time budget.
	lapStart, laps := time.Now(), ""
	lap := func(step string) {
		laps += fmt.Sprintf(" %s %.2fs", step, time.Since(lapStart).Seconds())
		lapStart = time.Now()
	}
	defer func() { res.note("harness:%s", laps) }()

	in, err := buildInputs(w, c.seed, p)
	if err != nil {
		return nil, err
	}
	if err := checkGolden(c.d, in, res); err != nil {
		return nil, err
	}
	lap("inputs")
	// One oracle pass serves both the server run (the whole stream) and
	// the layer run (warm-up and closed-loop batches only).
	refs, err := reference(in, (p.warm+p.closed)*batchEdges, len(in.edges))
	if err != nil {
		return nil, err
	}
	layerRef, ref := refs[0], refs[1]
	lap("oracle")

	// Set-up, several times over: each but the last is torn down again,
	// so setup_s is a median rather than one sample of process start-up.
	var o observed
	var l *live
	for i := 0; i < nSetups; i++ {
		if l != nil {
			l.stop()
		}
		var d time.Duration
		if l, d, err = setUp(c, sc, in, p); err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, d.Seconds())
	}
	defer func() { l.stop() }()
	lap("set-ups")

	if err := measure(c, sc, l, in, p, ref, &o, res, lap); err != nil {
		return nil, err
	}
	if !c.trace {
		res.set("setup_s", median(o.setupS), "s")
		res.set("edges_per_s", median(o.slices(edgesPerS)), "edges/s")
		res.set("cpu_us_per_edge", median(o.slices(cpuUsPerEdge)), "us")
		res.set("allocs_per_edge", float64(o.ms1.Mallocs-o.ms0.Mallocs)/o.closedEdges, "count")
		res.set("detect_p50_ms", quantile(o.detectMs, 0.50), "ms")
		res.set("peak_rss_mb", float64(o.pr2.hwmKB)/1024, "MiB")
		res.note("detect_p50_ms: %d samples; open loop at %.0f edges/s, sends late p50 %.3f ms, p99 %.3f ms, max %.3f ms of a %.3f ms period",
			len(o.detectMs), w.rateEPS, quantile(o.lateMs, 0.50), quantile(o.lateMs, 0.99), quantile(o.lateMs, 1), o.period.Seconds()*1e3)
		return res, res.finish()
	}

	serverSideMetrics(&o, in, p, res)
	// The server is done; the in-process layer passes get the machine.
	l.stop()
	if err := layerMetrics(c, in, p, layerRef, cpuUsPerEdge(o.marks[0], o.marks[len(o.marks)-1]), res); err != nil {
		return nil, err
	}
	lap("layers")
	return res, res.finish()
}

// measure drives the set-up server through the closed loop, the open
// loop and the quiesce, crashes and recovers the durable workload, and
// verifies what came back against the reference. Failures land in res.
func measure(c runConfig, sc scratch, l *live, in *inputs, p plan, ref map[string]multiset, o *observed, res *result, lap func(string)) error {
	w, srv, sub, feed := c.w, l.srv, l.sub, l.feed
	var expected int64
	for _, ms := range ref {
		expected += ms.Count
	}

	// Closed loop. Memory statistics are fetched outside the /proc
	// samples so that fetching them is not charged to the phase.
	var err error
	if o.ms0, err = srv.memStats(false); err != nil {
		return err
	}
	self0 := selfCPU()
	err = feed.closedLoop(in.bodies[p.warm:p.warm+p.closed], func() error {
		pr, err := readProc(srv.pid)
		o.marks = append(o.marks, mark{at: time.Now(), proc: pr, accepted: feed.accepted})
		return err
	})
	if err != nil {
		return err
	}
	if o.ms1, err = srv.memStats(false); err != nil {
		return err
	}
	o.pr0, o.pr1 = o.marks[0].proc, o.marks[len(o.marks)-1].proc
	o.closedEdges = float64(o.marks[len(o.marks)-1].accepted - o.marks[0].accepted)
	lap("closed")

	// Open loop at the workload's fixed rate.
	o.period = time.Duration(float64(batchEdges) / w.rateEPS * float64(time.Second))
	due, late, err := feed.openLoop(in.bodies[p.warm+p.closed:], o.period)
	if err != nil {
		return err
	}
	o.loadgenCPU = selfCPU() - self0
	lap("open")

	// Quiesce: every expected event has arrived, or none has for 5 s.
	sub.waitFor(expected, 5*time.Second)
	if o.stats, err = srv.stats(); err != nil {
		return err
	}
	if o.pr2, err = readProc(srv.pid); err != nil {
		return err
	}
	if c.trace {
		if o.ms2, err = srv.memStats(true); err != nil {
			return err
		}
	}
	if w.durable {
		o.walDisk = dirSize(sc.wal)
	}
	o.sseBytes, o.sseEvents = sub.bytes.Load(), sub.events.Load()
	lap("quiesce")

	// Verify: every edge acknowledged, every reference match delivered
	// exactly once and in sequence, nothing shed, nothing refused.
	sent := int64(p.total()) * batchEdges
	res.Attempted = sent + expected
	res.Failed = feed.refused + feed.rejected + abs(sent-feed.accepted-feed.refused-feed.rejected)
	if res.Failed > 0 {
		res.note("ingest: %d edges sent, %d accepted, %d rejected, %d in refused POSTs", sent, feed.accepted, feed.rejected, feed.refused)
	}
	sub.mu.Lock()
	for _, nq := range in.queries {
		var got multiset
		if q := sub.queries[nq.name]; q != nil {
			got = q.set
		}
		if want := ref[nq.name]; got != want {
			res.note("query %s: server delivered %+v, reference %+v", nq.name, got, want)
			res.Failed += max(abs(got.Count-want.Count), 1)
		}
	}
	for name, q := range sub.queries {
		if _, ok := ref[name]; !ok {
			res.note("%d events for unknown query %q", q.set.Count, name)
			res.Failed += q.set.Count
		}
	}
	if sub.seqGaps > 0 {
		res.note("%d per-query sequence gaps on the SSE stream", sub.seqGaps)
		res.Failed += sub.seqGaps
	}
	if sub.err != nil {
		res.note("SSE stream: %v", sub.err)
		res.Failed++
	}
	canaryAt := append([]time.Time(nil), sub.canaryAt...)
	sub.mu.Unlock()
	usage := o.stats.Tenants[tenantName]
	if n := o.stats.Dropped + usage.RejectedEdges + usage.RejectedBatches; n > 0 {
		res.note("server shed %d events, tenant admission rejected %d edges and %d batches", o.stats.Dropped, usage.RejectedEdges, usage.RejectedBatches)
		res.Failed += n
	}

	// Detection latency: batch due time → arrival of that batch's
	// canary match on the SSE connection. One sample per open-loop batch;
	// a canary that never arrived is already counted as a missing event.
	for i := range due {
		if at := canaryAt[p.warm+p.closed+i]; !at.IsZero() {
			o.detectMs = append(o.detectMs, at.Sub(due[i]).Seconds()*1e3)
		}
		o.lateMs = append(o.lateMs, late[i].Seconds()*1e3)
	}
	// A rate the server cannot sustain shows as a backlog that grows
	// through the phase: detection in the last fifth takes several times
	// what it took in the first. Such a run's latencies describe the length
	// of the phase, not the server.
	if fifth := len(o.detectMs) / 5; fifth >= 10 {
		head, tail := median(o.detectMs[:fifth]), median(o.detectMs[len(o.detectMs)-fifth:])
		if tail > 3*head {
			res.note("open loop at %.0f edges/s is ABOVE THE SUSTAINABLE RATE: median detection %.3f ms in the first fifth, %.3f ms in the last", w.rateEPS, head, tail)
		}
	}
	sort.Float64s(o.detectMs)
	sort.Float64s(o.lateMs)

	// Durable workload: SIGKILL, restart on the same WAL directory, and
	// hold the recovered log to the edges the server acknowledged.
	if w.durable {
		srv.kill()
		t0 := time.Now()
		again, err := spawn(c.bin, sc.tenants, sc.log, serverFlags(w, sc))
		if err != nil {
			return err
		}
		l.srv = again
		if err := again.waitReady(60 * time.Second); err != nil {
			return err
		}
		o.recoverS = time.Since(t0).Seconds()
		st, err := again.stats()
		if err != nil {
			return err
		}
		o.replayed = st.Fleet.Replayed
		if st.Fleet.WALSeq != feed.accepted {
			res.note("after restart wal_seq = %d, acknowledged edges = %d", st.Fleet.WALSeq, feed.accepted)
			res.Failed += abs(st.Fleet.WALSeq - feed.accepted)
		}
		lap("recover")
	}
	return nil
}

// serverSideMetrics reports the source-S per-layer metrics: what the
// measured server's own counters, stage histograms, runtime and /proc
// say, read from outside after the run.
func serverSideMetrics(o *observed, in *inputs, p plan, res *result) {
	fs := o.stats.Fleet
	if fs.Stages == nil {
		fs.Stages = &client.StageStats{}
	}
	usage := o.stats.Tenants[tenantName]
	fed, posts := float64(fs.Fed), float64(p.total())
	res.set("client.detect_p90_ms", quantile(o.detectMs, 0.90), "ms")
	res.set("client.detect_p99_ms", quantile(o.detectMs, 0.99), "ms")
	res.set("client.detect_samples", float64(len(o.detectMs)), "count")
	res.set("client.failed_share", float64(res.Failed)/float64(res.Attempted), "ratio")
	res.set("server.body_b_per_edge", float64(usage.IngestBytes)/float64(usage.AdmittedEdges), "B")
	res.set("server.sse_b_per_event", float64(o.sseBytes)/float64(o.sseEvents), "B")
	res.set("server.dropped_events", float64(o.stats.Dropped), "count")
	res.set("tenant.rejected_429", float64(usage.RejectedEdges+usage.RejectedBatches), "count")
	res.set("graph.in_window_end", float64(fs.InWindow), "count")
	res.set("fleet.ingest_ns_per_edge", float64(fs.Stages.Ingest.Sum)/fed, "ns")
	res.set("router.routed_fraction", fs.RoutedFraction, "ratio")
	res.set("wal.append_ns_per_edge", float64(fs.Stages.WALAppend.Sum)/fed, "ns")
	res.set("wal.sync_ns_per_batch", float64(fs.Stages.WALSync.Mean), "ns")
	res.set("wal.syncs_per_batch", float64(fs.WALSyncs)/posts, "count")
	res.set("wal.disk_mb_end", float64(o.walDisk)/(1<<20), "MiB")
	res.set("wal.replayed_edges", float64(o.replayed), "count")
	res.set("wal.recover_s", o.recoverS, "s")
	res.set("fleetpool.queue_wait_ns_per_batch", float64(fs.Stages.QueueWait.Sum)/posts, "ns")
	res.set("fleetpool.exec_ns_per_batch", float64(fs.Stages.ShardExec.Sum)/posts, "ns")
	res.set("fleetpool.busy_skew", skew(fs.ShardBusyNs), "ratio")
	// core samples one Process call in 32 into the join and expiry
	// histograms (core's statSampleStride), so sums scale back by 32.
	res.set("core.join_ns_per_edge", float64(fs.Stages.Join.Sum)*32/fed, "ns")
	res.set("core.expiry_ns_per_slide", float64(fs.Stages.Expiry.Mean), "ns")
	res.set("core.join_scanned_per_edge", float64(fs.JoinScanned)/fed, "count")
	res.set("core.candidates_per_scanned", float64(fs.JoinCandidates)/float64(fs.JoinScanned), "ratio")
	// Discarded is summed over members; the share is of the feeds members
	// actually received (all of them on a broadcast fleet, the routed
	// fraction on a routed one).
	res.set("core.discarded_share", float64(fs.Discarded)/(fed*float64(len(in.queries))*fs.RoutedFraction), "ratio")
	res.set("core.matches_per_edge", float64(fs.Matches)/fed, "count")
	res.set("core.evicted_per_slide", float64(fs.ExpiryEvicted)/float64(fs.ExpiryBatches), "count")
	res.set("mstree.space_bytes_end", float64(fs.SpaceBytes), "B")
	res.set("mstree.partial_matches_end", float64(fs.PartialMatches), "count")
	res.set("mstree.space_b_per_partial", float64(fs.SpaceBytes)/float64(fs.PartialMatches), "B")
	res.set("dispatch.ns_per_match", float64(fs.Stages.Dispatch.Mean), "ns")
	res.set("dispatch.delivered", float64(fs.SubscriptionDelivered), "count")
	res.set("dispatch.dropped", float64(fs.SubscriptionDropped), "count")
	res.set("engine.detection_p50_ms", float64(fs.Stages.Detection.P50)/1e6, "ms")
	res.set("engine.detection_p99_ms", float64(fs.Stages.Detection.P99)/1e6, "ms")
	res.set("runtime.alloc_b_per_edge", float64(o.ms1.TotalAlloc-o.ms0.TotalAlloc)/o.closedEdges, "B")
	res.set("runtime.live_heap_mb", float64(o.ms2.HeapAlloc)/(1<<20), "MiB")
	res.set("runtime.num_gc", float64(o.ms1.NumGC-o.ms0.NumGC), "count")
	res.set("runtime.gc_pause_ms", gcPauseNs(o.ms0, o.ms1)/1e6, "ms")
	res.set("proc.cpu_user_s", float64(o.pr1.userTicks-o.pr0.userTicks)/clockTick, "s")
	res.set("proc.cpu_sys_s", float64(o.pr1.sysTicks-o.pr0.sysTicks)/clockTick, "s")
	res.set("proc.ctx_switches", float64(o.pr1.ctxSwitches-o.pr0.ctxSwitches), "count")
	res.set("proc.write_mb", float64(o.pr1.writeBytes-o.pr0.writeBytes)/(1<<20), "MiB")
	res.set("proc.peak_rss_mb", float64(o.pr2.hwmKB)/1024, "MiB")
	res.set("loadgen.late_p99_ms", quantile(o.lateMs, 0.99), "ms")
	res.set("loadgen.late_max_ms", quantile(o.lateMs, 1), "ms")
	res.set("loadgen.cpu_s", o.loadgenCPU.Seconds(), "s")
	res.set("loadgen.closed_slice_cv", cv(o.slices(func(a, b mark) float64 { return b.at.Sub(a.at).Seconds() })), "ratio")
}

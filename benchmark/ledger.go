package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"timingsubg/internal/checkpoint"
)

// layerMetrics runs the traced layer passes over the warm-up and
// closed-loop batches and reports source-L metrics and the ledger.
func layerMetrics(c runConfig, in *inputs, p plan, want map[string]multiset, cpuUsPerEdge float64, res *result) error {
	w := c.w
	nb := p.warm + p.closed
	scratch := filepath.Join(c.d.out, fmt.Sprintf("layers-%s-%d", w.name, os.Getpid()))
	scrub := func() { os.RemoveAll(scratch) }
	scrub()
	defer onExit(scrub)()
	defer scrub()

	// The recomposition must reproduce the reference over the batches
	// it ran, or it has drifted from the program and its times mean
	// nothing.
	traced, err := recompose(in, nb, true, filepath.Join(scratch, "on"))
	if err != nil {
		return err
	}
	plain, err := recompose(in, nb, false, filepath.Join(scratch, "off"))
	if err != nil {
		return err
	}
	for _, run := range []*layerRun{traced, plain} {
		for _, nq := range in.queries {
			if got := run.sets[nq.name]; got != want[nq.name] {
				res.note("layer run: query %s: recomposition reports %+v, reference %+v", nq.name, got, want[nq.name])
				res.Failed += max(abs(got.Count-want[nq.name].Count), 1)
			}
		}
	}
	inner, outer := calibrateSpans()
	if err := writeTrace(filepath.Join(c.d.out, "trace_"+w.name+".json"), in, nb, traced, inner, outer); err != nil {
		return err
	}

	edges := float64(traced.edges)
	perEdge := func(l layer) float64 { return traced.sums[l].corrected(inner, outer) / edges }
	res.set("tenant.admit_ns_per_edge", perEdge(lTenant), "ns")
	res.set("graph.push_ns_per_edge", perEdge(lGraph), "ns")
	res.set("router.route_ns_per_edge", perEdge(lRouter), "ns")
	res.set("core.insert_ns_per_edge", perEdge(lInsert), "ns")
	res.set("core.expire_ns_per_edge", perEdge(lExpire), "ns")
	res.set("core.partial_ins_per_edge", float64(traced.partIns)/edges, "count")
	res.set("core.partial_del_per_edge", float64(traced.partDel)/edges, "count")
	res.set("dispatch.publish_ns_per_match", perEdge(lDispatch)*edges/float64(traced.sums[lDispatch].Calls), "ns")
	res.set("wal.append_batch_ns_per_edge", perEdge(lWAL)-float64(traced.syncNS)/edges, "ns")

	// wal.* and checkpoint.* read 0, not applicable, off the durable workload.
	var saveMs, loadMs, ckBytes, walBytes, replayNs float64
	if w.durable {
		saveMs = float64(traced.sums[lCheckpoint].NS) / float64(traced.saves) / 1e6
		var total time.Duration
		for _, dir := range traced.ckDirs {
			t0 := time.Now()
			if _, ok, err := checkpoint.Load(dir); err != nil || !ok {
				return fmt.Errorf("layer run: load checkpoint %s: ok=%v err=%v", dir, ok, err)
			}
			total += time.Since(t0)
			ckBytes += float64(newestFileSize(dir))
		}
		n := float64(len(traced.ckDirs))
		loadMs, ckBytes = total.Seconds()*1e3/n, ckBytes/n
		if walBytes, replayNs, err = walCell(in, nb, filepath.Join(scratch, "walcell")); err != nil {
			return err
		}
	}
	res.set("checkpoint.save_ms", saveMs, "ms")
	res.set("checkpoint.load_ms", loadMs, "ms")
	res.set("checkpoint.bytes", ckBytes, "B")
	res.set("wal.bytes_per_edge", walBytes, "B")
	res.set("wal.replay_ns_per_edge", replayNs, "ns")

	handlerNs, err := handlerCell(in, nb)
	if err != nil {
		return err
	}
	res.set("server.handler_ns_per_edge", handlerNs, "ns")
	// What SSE delivery costs per event: the workload through the
	// server's handler with and without one subscriber.
	var wantMatches int64
	for _, ms := range want {
		wantMatches += ms.Count
	}
	quietNs, _, err := serveCell(in, nb, false, 0)
	if err != nil {
		return err
	}
	streamNs, events, err := serveCell(in, nb, true, wantMatches)
	if err != nil {
		return err
	}
	if events != wantMatches {
		res.note("serve cell: SSE stream carried %d events, reference %d", events, wantMatches)
		res.Failed += abs(events - wantMatches)
	}
	sseNsPerEvent := max(0, (streamNs-quietNs)*edges/float64(wantMatches))
	res.set("server.sse_ns_per_event", sseNsPerEvent, "ns")
	decMs, k := decomposeCell(in)
	res.set("query.decompose_ms", decMs, "ms")
	res.set("query.k", k, "count")

	// The real fleet engine over the same batches, serially — its time
	// beyond what its members' graph and core calls cost is the fleet's
	// own — and, where the workload shards, sharded.
	serialNs, matches, err := fleetFeed(in, nb, 0)
	if err != nil {
		return err
	}
	if matches != wantMatches {
		res.note("fleet cell: %d matches, reference %d", matches, wantMatches)
		res.Failed += abs(matches - wantMatches)
	}
	feedNs, ratio := serialNs, 0.0
	if w.workers > 1 {
		if feedNs, _, err = fleetFeed(in, nb, w.workers); err != nil {
			return err
		}
		ratio = serialNs / feedNs
	}
	memberNs := perEdge(lRouter) + perEdge(lGraph) + perEdge(lInsert) + perEdge(lExpire) + perEdge(lDispatch)
	fleetNs := max(0, serialNs-memberNs)
	res.set("fleet.feed_ns_per_edge", feedNs, "ns")
	res.set("fleet.overhead_ns_per_edge", fleetNs, "ns")
	res.set("fleetpool.serial_over_sharded", ratio, "ratio")

	// The ledger: each layer's self time per edge, their sum, and how
	// much of the server's measured CPU per edge that sum leaves
	// unexplained (HTTP, SSE encoding, the runtime, the kernel).
	shares := []struct {
		name string
		ns   float64
	}{
		{"server", perEdge(lServer)}, {"sse", sseNsPerEvent * float64(wantMatches) / edges},
		{"tenant", perEdge(lTenant)}, {"wal", perEdge(lWAL)},
		{"checkpoint", perEdge(lCheckpoint)}, {"router", perEdge(lRouter)}, {"graph", perEdge(lGraph)},
		{"core_insert", perEdge(lInsert)}, {"core_expire", perEdge(lExpire)}, {"dispatch", perEdge(lDispatch)},
		{"fleet", fleetNs},
	}
	var attributed float64
	for _, s := range shares {
		attributed += s.ns
	}
	for _, s := range shares {
		res.set("ledger."+s.name+"_share", s.ns/attributed, "ratio")
	}
	res.set("ledger.attributed_us_per_edge", attributed/1e3, "us")
	res.set("ledger.unattributed_share", 1-attributed/1e3/cpuUsPerEdge, "ratio")
	res.set("trace.overhead_share", (traced.wall-plain.wall).Seconds()/plain.wall.Seconds(), "ratio")
	return nil
}

// newestFileSize is the size of the most recently written file in dir.
func newestFileSize(dir string) int64 {
	entries, _ := os.ReadDir(dir)
	var size int64
	var newest time.Time
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && info.Mode().IsRegular() && info.ModTime().After(newest) {
			newest, size = info.ModTime(), info.Size()
		}
	}
	return size
}

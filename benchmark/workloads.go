package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"timingsubg/internal/datagen"
	"timingsubg/internal/graph"
	"timingsubg/internal/query"
	"timingsubg/internal/querygen"
)

// Shape shared by every workload: one POST is batchEdges NDJSON lines —
// organicPerBatch datagen edges followed by the canary ping and pong —
// with explicit, strictly increasing timestamps.
const (
	batchEdges      = 256
	organicPerBatch = batchEdges - 2
	// Canary vertices live far above every datagen ID space (the
	// largest is SocialStream's 30·V + V), two fresh IDs per batch.
	canaryBase = int64(1) << 40
	// querySampleSeed is the datagen seed of the stream prefix queries
	// are extracted from. It is a constant, not -seed: the queries are
	// part of the workload definition and stay the same on every seed,
	// so runs on different seeds load the same layers the same way.
	querySampleSeed = 1
	canaryName      = "canary"
	canaryText      = "v 0 canary\nv 1 canary\ne 0 1 cping\ne 1 0 cpong\no 0 < 1\n"
	// warmSeconds sizes the warm-up (see planFor). It does not scale
	// with -seconds: set-up is the same work however long the run.
	warmSeconds = 0.2
)

// querySpec names one frozen organic query: querygen extracts it from
// the querySampleSeed prefix of the workload's dataset.
type querySpec struct {
	size  int
	order querygen.OrderKind
	seed  int64
}

// workload is one of the five traffic mixes. They share batch size,
// canary, tenancy and phases and differ only in data, queries, window
// and server flags.
type workload struct {
	name     string
	dataset  datagen.Dataset
	vertices int
	window   int64
	// burst > 0 remaps timestamps into bursts of that many edges one
	// tick apart, separated by a gap of one window (PR 10's remap), so
	// the first edge of a burst evicts the whole previous burst in one
	// slide.
	burst   int
	queries []querySpec
	flags   []string // tsserved flags beyond the common set
	durable bool
	routed  bool
	workers int
	// closedEPS sizes the closed-loop phase: it feeds closedEPS·seconds/2
	// edges, which takes about seconds/2 on the seed commit. rateEPS is
	// the open-loop rate, ≈50 % of the seed's closed-loop figure (2 s.f.).
	// Both are sizing constants: edge counts, not durations, are fixed,
	// so the program's own counts repeat exactly from run to run.
	closedEPS float64
	rateEPS   float64
}

// wikiQueries is wiki_fleet's roster: 8 queries of each size 3–6 in
// random, full and empty timing order, each vetted to 0.001–0.02 matches
// per edge on its own (≈0.15 in sum; see README.md for why not more).
func wikiQueries() []querySpec {
	var qs []querySpec
	add := func(size int, order querygen.OrderKind, seeds ...int64) {
		for _, seed := range seeds {
			qs = append(qs, querySpec{size, order, seed})
		}
	}
	R, F, E := querygen.RandomOrder, querygen.FullOrder, querygen.EmptyOrder
	add(3, R, 1, 2, 11)
	add(3, F, 2, 12, 15)
	add(3, E, 5, 11)
	add(4, R, 5, 12, 14)
	add(4, F, 1, 11, 12)
	add(4, E, 23, 31)
	add(5, R, 2, 9, 21)
	add(5, F, 1, 11, 15)
	add(5, E, 9, 23)
	add(6, R, 9, 11, 14)
	add(6, F, 1, 2, 7, 9)
	add(6, E, 23)
	return qs
}

// Why each workload exists — which layer it is built to load — is in
// BENCHMARK.json and, with the measured shares, in README.md.
var workloads = []*workload{
	{
		// Nearly every edge is discarded by core in O(1): server decode,
		// tenant admission and HTTP do most of the work.
		name:     "flow_ingest",
		dataset:  datagen.NetworkFlow,
		vertices: 2000,
		window:   5000,
		queries: []querySpec{
			{4, querygen.FullOrder, 11}, {4, querygen.FullOrder, 12},
			{4, querygen.FullOrder, 13}, {4, querygen.FullOrder, 14},
		},
		flags:     []string{"-routed"},
		routed:    true,
		closedEPS: 300000,
		rateEPS:   150000,
	},
	{
		// flow_ingest's bytes and queries, durably: one fsync per POST and
		// a checkpoint every 4096 edges. The durable fleet ignores -routed
		// (it broadcasts so that recovery replay stays deterministic).
		name:     "flow_durable",
		dataset:  datagen.NetworkFlow,
		vertices: 2000,
		window:   5000,
		queries: []querySpec{
			{4, querygen.FullOrder, 11}, {4, querygen.FullOrder, 12},
			{4, querygen.FullOrder, 13}, {4, querygen.FullOrder, 14},
		},
		flags:     []string{"-routed", "-sync-every", "1", "-checkpoint-every", "4096"},
		durable:   true,
		closedEPS: 130000,
		rateEPS:   65000,
	},
	{
		// One size-6 query over a dense window, one edge in and one out
		// per slide: core INSERT and its joins do most of the work.
		name:      "social_join",
		dataset:   datagen.SocialStream,
		vertices:  300,
		window:    3000,
		queries:   []querySpec{{6, querygen.RandomOrder, 366}},
		closedEPS: 120000,
		rateEPS:   60000,
	},
	{
		// social_join's edges and query in 3000-edge bursts a window
		// apart: state builds up through a burst and the next burst's
		// first edge evicts all of it in one batched slide.
		name:      "social_burst",
		dataset:   datagen.SocialStream,
		vertices:  300,
		window:    3000,
		burst:     3000,
		queries:   []querySpec{{6, querygen.RandomOrder, 366}},
		closedEPS: 180000,
		rateEPS:   90000,
	},
	{
		// 32 routed queries on 2 shards with ~40× flow's matches: fleet
		// fan-out, routing, the shard pool, dispatch and SSE delivery.
		name:      "wiki_fleet",
		dataset:   datagen.WikiTalk,
		vertices:  300,
		window:    3000,
		queries:   wikiQueries(),
		flags:     []string{"-routed", "-fleet-workers", "2"},
		routed:    true,
		workers:   2,
		closedEPS: 170000,
		rateEPS:   85000,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// namedQuery is one registered query: its wire name, its text (what
// the server sees) and the parsed form (what the oracle and the layer
// run see).
type namedQuery struct {
	name string
	text string
	q    *query.Query
}

// plan sizes one run. Counts are in batches.
type plan struct {
	warm, closed, open int
}

func (p plan) total() int { return p.warm + p.closed + p.open }

// planFor fixes the edge counts of a run from -seconds and the share of
// it each phase gets.
func planFor(w *workload, seconds, closedShare, openShare float64) plan {
	atLeast := func(n int) int {
		if n < 4 {
			return 4
		}
		return n
	}
	// Warm-up fills the window twice over and is at least warmSeconds of
	// closed-loop feeding, so that set-up time is mostly the program's
	// own work and not the jitter of starting a process.
	held := w.window // edges the window holds: one tick apart, or one burst
	if w.burst > 0 {
		held = int64(w.burst)
	}
	warm := int(math.Ceil(2 * float64(held) / batchEdges))
	warm = max(warm, goldenBatches-8, int(math.Round(w.closedEPS*warmSeconds/batchEdges)))
	return plan{
		warm:   warm,
		closed: atLeast(int(math.Round(w.closedEPS * seconds * closedShare / batchEdges))),
		open:   atLeast(int(math.Round(w.rateEPS * seconds * openShare / batchEdges))),
	}
}

// inputs is everything a run feeds, made from the seed before timing.
type inputs struct {
	w       *workload
	seed    int64
	labels  *graph.Labels
	queries []namedQuery // canary first
	edges   []graph.Edge // every slot incl. canaries; ID = slot index
	bodies  [][]byte     // one pre-encoded NDJSON body per batch
}

// buildQueries generates the workload's frozen query set. It depends
// on the workload alone, never on -seed.
func buildQueries(w *workload, labels *graph.Labels) ([]namedQuery, error) {
	canary, err := query.Parse(bytes.NewReader([]byte(canaryText)), labels)
	if err != nil {
		return nil, fmt.Errorf("canary query: %w", err)
	}
	out := []namedQuery{{name: canaryName, text: canaryText, q: canary}}
	// Queries are walked from one window's worth of the sample stream.
	sample := datagen.New(w.dataset, labels, datagen.Config{Vertices: w.vertices, Seed: querySampleSeed}).Take(int(w.window))
	for i, spec := range w.queries {
		q, _, err := querygen.Generate(sample, querygen.Config{Size: spec.size, Order: spec.order, Seed: spec.seed})
		if err != nil {
			return nil, fmt.Errorf("%s: query %d (seed %d): %w", w.name, i, spec.seed, err)
		}
		var buf bytes.Buffer
		if err := query.Write(&buf, labels, q); err != nil {
			return nil, err
		}
		out = append(out, namedQuery{name: fmt.Sprintf("q%02d", i), text: buf.String(), q: q})
	}
	return out, nil
}

// slotTime maps a stream slot to its timestamp.
func (w *workload) slotTime(slot int) graph.Timestamp {
	if w.burst > 0 {
		return graph.Timestamp(int64(slot/w.burst)*(int64(w.burst)+w.window) + int64(slot%w.burst) + 1)
	}
	return graph.Timestamp(slot + 1)
}

// buildInputs generates the stream for seed, plants the canary pair in
// the last two slots of every batch and encodes each batch to NDJSON.
func buildInputs(w *workload, seed int64, p plan) (*inputs, error) {
	labels := graph.NewLabels()
	queries, err := buildQueries(w, labels)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed, labels: labels, queries: queries}
	gen := datagen.New(w.dataset, labels, datagen.Config{Vertices: w.vertices, Seed: seed})
	cv := labels.Intern("canary")
	ping, pong := labels.Intern("cping"), labels.Intern("cpong")
	nb := p.total()
	in.edges = make([]graph.Edge, 0, nb*batchEdges)
	in.bodies = make([][]byte, nb)
	quoted := map[graph.Label][]byte{}
	quote := func(l graph.Label) []byte {
		if b, ok := quoted[l]; ok {
			return b
		}
		b, _ := json.Marshal(labels.String(l))
		quoted[l] = b
		return b
	}
	for b := 0; b < nb; b++ {
		for i := 0; i < organicPerBatch; i++ {
			e := gen.Next()
			in.edges = append(in.edges, e)
		}
		a := graph.VertexID(canaryBase + 2*int64(b))
		in.edges = append(in.edges,
			graph.Edge{From: a, To: a + 1, FromLabel: cv, ToLabel: cv, EdgeLabel: ping},
			graph.Edge{From: a + 1, To: a, FromLabel: cv, ToLabel: cv, EdgeLabel: pong})
		body := make([]byte, 0, batchEdges*112)
		for i := b * batchEdges; i < (b+1)*batchEdges; i++ {
			e := &in.edges[i]
			e.ID = graph.EdgeID(i)
			e.Time = w.slotTime(i)
			body = append(body, `{"from":`...)
			body = strconv.AppendInt(body, int64(e.From), 10)
			body = append(body, `,"to":`...)
			body = strconv.AppendInt(body, int64(e.To), 10)
			body = append(body, `,"from_label":`...)
			body = append(body, quote(e.FromLabel)...)
			body = append(body, `,"to_label":`...)
			body = append(body, quote(e.ToLabel)...)
			if e.EdgeLabel != graph.NoLabel {
				body = append(body, `,"label":`...)
				body = append(body, quote(e.EdgeLabel)...)
			}
			body = append(body, `,"time":`...)
			body = strconv.AppendInt(body, int64(e.Time), 10)
			body = append(body, "}\n"...)
		}
		in.bodies[b] = body
	}
	return in, nil
}

package bench

import (
	"fmt"
	"math/rand"
	"os"

	"timingsubg/internal/datagen"
	"timingsubg/internal/graph"
	"timingsubg/internal/query"
	"timingsubg/internal/querygen"
)

// Series is one plotted line: Y[i] measured at X[i].
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Panel is one subplot (one dataset in the paper's 3-panel figures).
type Panel struct {
	Name   string
	Series []Series
}

// Figure is one reproduced evaluation figure.
type Figure struct {
	Name   string // "Fig15", ...
	Title  string
	XLabel string
	YLabel string
	Panels []Panel
}

// stream returns StreamLen+window edges for ds: the first window-full
// warms the window so measurements cover steady state; queries are
// generated from the warmup prefix so they have embeddings.
func (c Config) stream(ds datagen.Dataset, window int) (warm, measured []graph.Edge) {
	labels := graph.NewLabels()
	gen := datagen.New(ds, labels, datagen.Config{Vertices: c.Vertices, Seed: c.Seed + int64(ds)})
	all := gen.Take(window + c.StreamLen)
	return all[:window], all
}

// averageRuns runs every query in the set and averages throughput and
// space (the paper reports per-setting averages over the generated
// queries, Section VII-C). Truncated cells are announced on stderr so a
// bounded measurement never silently passes as a full one.
func (c Config) averageRuns(m Method, qs []GeneratedQuery, edges []graph.Edge, window graph.Timestamp) (tput float64, space float64, matches float64) {
	if len(qs) == 0 {
		return 0, 0, 0
	}
	for qi, gq := range qs {
		r := RunBudget(NewMatcher(m, gq.Query), edges, window, c.MaxRunTime)
		if r.Truncated {
			fmt.Fprintf(os.Stderr, "note: %s query %d (|E|=%d, window %d) truncated at %v\n",
				m, qi, gq.Query.NumEdges(), window, c.MaxRunTime)
		}
		tput += r.Throughput
		space += float64(r.AvgSpace)
		matches += float64(r.Matches)
	}
	n := float64(len(qs))
	return tput / n, space / n, matches / n
}

// Fig15and17 — throughput (Fig. 15) and space (Fig. 17) over window
// size, per dataset, all methods. One sweep produces both figures: the
// paper reports both metrics from the same runs.
func Fig15and17(c Config) (tput, space Figure) {
	return c.sweepWindows()
}

func (c Config) sweepWindows() (tputFig, spaceFig Figure) {
	tputFig = Figure{Name: "Fig15", Title: "Throughput over Different Window Size",
		XLabel: "Window Size", YLabel: "Throughput(edge/sec)"}
	spaceFig = Figure{Name: "Fig17", Title: "Space over Different Window Size",
		XLabel: "Window Size", YLabel: "Space(KB)"}
	for _, ds := range c.Datasets {
		tp := Panel{Name: ds.String()}
		sp := Panel{Name: ds.String()}
		tSeries := make([]Series, len(Methods()))
		sSeries := make([]Series, len(Methods()))
		for i, m := range Methods() {
			tSeries[i].Label, sSeries[i].Label = m.String(), m.String()
		}
		for _, w := range c.Windows {
			warm, edges := c.stream(ds, w)
			qs := c.QuerySet(ds, c.DefaultQuerySize, warm)
			for i, m := range Methods() {
				tput, space, _ := c.averageRuns(m, qs, edges, graph.Timestamp(w))
				tSeries[i].X = append(tSeries[i].X, float64(w))
				tSeries[i].Y = append(tSeries[i].Y, tput)
				sSeries[i].X = append(sSeries[i].X, float64(w))
				sSeries[i].Y = append(sSeries[i].Y, space/1024)
			}
		}
		tp.Series, sp.Series = tSeries, sSeries
		tputFig.Panels = append(tputFig.Panels, tp)
		spaceFig.Panels = append(spaceFig.Panels, sp)
	}
	return tputFig, spaceFig
}

// Fig16and18 — throughput (Fig. 16) and space (Fig. 18) over query
// size; one sweep produces both figures.
func Fig16and18(c Config) (tput, space Figure) {
	return c.sweepQuerySizes()
}

func (c Config) sweepQuerySizes() (tputFig, spaceFig Figure) {
	tputFig = Figure{Name: "Fig16", Title: "Throughput over Different Query Size",
		XLabel: "Query Size(Number of Edges)", YLabel: "Throughput(edge/sec)"}
	spaceFig = Figure{Name: "Fig18", Title: "Space over Different Query Size",
		XLabel: "Query Size(Number of Edges)", YLabel: "Space(KB)"}
	for _, ds := range c.Datasets {
		tp := Panel{Name: ds.String()}
		sp := Panel{Name: ds.String()}
		tSeries := make([]Series, len(Methods()))
		sSeries := make([]Series, len(Methods()))
		for i, m := range Methods() {
			tSeries[i].Label, sSeries[i].Label = m.String(), m.String()
		}
		warm, edges := c.stream(ds, c.DefaultWindow)
		for _, size := range c.QuerySizes {
			qs := c.QuerySet(ds, size, warm)
			if len(qs) == 0 {
				continue
			}
			for i, m := range Methods() {
				tput, space, _ := c.averageRuns(m, qs, edges, graph.Timestamp(c.DefaultWindow))
				tSeries[i].X = append(tSeries[i].X, float64(size))
				tSeries[i].Y = append(tSeries[i].Y, tput)
				sSeries[i].X = append(sSeries[i].X, float64(size))
				sSeries[i].Y = append(sSeries[i].Y, space/1024)
			}
		}
		tp.Series, sp.Series = tSeries, sSeries
		tputFig.Panels = append(tputFig.Panels, tp)
		spaceFig.Panels = append(spaceFig.Panels, sp)
	}
	return tputFig, spaceFig
}

// Fig21 — decomposition/join-order ablation: Timing vs Timing-RJ vs
// Timing-RD vs Timing-RDJ, per dataset, at the default window.
func Fig21(c Config) (timeFig, spaceFig Figure) {
	timeFig = Figure{Name: "Fig21a", Title: "Evaluating Optimizations: Time Efficiency",
		XLabel: "Dataset", YLabel: "Throughput(edges/sec)"}
	spaceFig = Figure{Name: "Fig21b", Title: "Evaluating Optimizations: Space Efficiency",
		XLabel: "Dataset", YLabel: "Space(KB)"}
	variants := []string{"Timing", "Timing-RJ", "Timing-RD", "Timing-RDJ"}
	tp := Panel{Name: "all"}
	sp := Panel{Name: "all"}
	tSeries := make([]Series, len(variants))
	sSeries := make([]Series, len(variants))
	for i, v := range variants {
		tSeries[i].Label, sSeries[i].Label = v, v
	}
	for di, ds := range c.Datasets {
		warm, edges := c.stream(ds, c.DefaultWindow)
		qs := c.QuerySet(ds, c.DefaultQuerySize, warm)
		for vi, v := range variants {
			var tput, space float64
			n := 0
			for qi, gq := range qs {
				rng := rand.New(rand.NewSource(c.Seed + int64(qi)))
				var dec *query.Decomposition
				switch v {
				case "Timing":
					dec = query.Decompose(gq.Query)
				case "Timing-RJ":
					dec = query.DecomposeOrdered(gq.Query, rng)
				case "Timing-RD":
					dec = query.DecomposeRandom(gq.Query, rng, nil)
				case "Timing-RDJ":
					dec = query.DecomposeRandom(gq.Query, rng, rng)
				}
				r := RunBudget(NewTimingMatcher(gq.Query, dec), edges, graph.Timestamp(c.DefaultWindow), c.MaxRunTime)
				tput += r.Throughput
				space += float64(r.AvgSpace)
				n++
			}
			if n == 0 {
				continue
			}
			tSeries[vi].X = append(tSeries[vi].X, float64(di))
			tSeries[vi].Y = append(tSeries[vi].Y, tput/float64(n))
			sSeries[vi].X = append(sSeries[vi].X, float64(di))
			sSeries[vi].Y = append(sSeries[vi].Y, space/float64(n)/1024)
		}
	}
	tp.Series, sp.Series = tSeries, sSeries
	timeFig.Panels = []Panel{tp}
	spaceFig.Panels = []Panel{sp}
	return timeFig, spaceFig
}

// Fig23 and Fig24 — throughput and space over decomposition size k, all
// methods, query size fixed (paper: 12), window fixed.
func Fig23and24(c Config) (tputFig, spaceFig Figure) {
	tputFig = Figure{Name: "Fig23", Title: "Throughput over Different k",
		XLabel: "Decomposition size k", YLabel: "Throughput(edges/sec)"}
	spaceFig = Figure{Name: "Fig24", Title: "Space over Different k",
		XLabel: "Decomposition size k", YLabel: "Space(KB)"}
	for _, ds := range c.Datasets {
		tp := Panel{Name: ds.String()}
		sp := Panel{Name: ds.String()}
		tSeries := make([]Series, len(Methods()))
		sSeries := make([]Series, len(Methods()))
		for i, m := range Methods() {
			tSeries[i].Label, sSeries[i].Label = m.String(), m.String()
		}
		warm, edges := c.stream(ds, c.DefaultWindow)
		for _, k := range c.KValues {
			if k > c.KQuerySize {
				continue
			}
			q, _, err := querygen.GenerateWithK(warm, c.KQuerySize, k, c.Seed+int64(k*97))
			if err != nil {
				continue
			}
			qs := []GeneratedQuery{{Query: q}}
			for i, m := range Methods() {
				tput, space, _ := c.averageRuns(m, qs, edges, graph.Timestamp(c.DefaultWindow))
				tSeries[i].X = append(tSeries[i].X, float64(k))
				tSeries[i].Y = append(tSeries[i].Y, tput)
				sSeries[i].X = append(sSeries[i].X, float64(k))
				sSeries[i].Y = append(sSeries[i].Y, space/1024)
			}
		}
		tp.Series, sp.Series = tSeries, sSeries
		tputFig.Panels = append(tputFig.Panels, tp)
		spaceFig.Panels = append(spaceFig.Panels, sp)
	}
	return tputFig, spaceFig
}

// Fig25 — selectivity of the generated query sets: average answer count
// over window size (a) and query size (b).
func Fig25(c Config) Figure {
	fig := Figure{Name: "Fig25", Title: "Selectivity",
		XLabel: "Window Size / Query Size", YLabel: "Number of Answers"}
	byWindow := Panel{Name: "VaryingWindow"}
	for _, ds := range c.Datasets {
		s := Series{Label: ds.String()}
		for _, w := range c.Windows {
			warm, edges := c.stream(ds, w)
			qs := c.QuerySet(ds, c.DefaultQuerySize, warm)
			if len(qs) == 0 {
				continue
			}
			_, _, matches := c.averageRuns(Timing, qs, edges, graph.Timestamp(w))
			s.X = append(s.X, float64(w))
			s.Y = append(s.Y, matches)
		}
		byWindow.Series = append(byWindow.Series, s)
	}
	bySize := Panel{Name: "VaryingQuerySize"}
	for _, ds := range c.Datasets {
		s := Series{Label: ds.String()}
		warm, edges := c.stream(ds, c.DefaultWindow)
		for _, size := range c.QuerySizes {
			qs := c.QuerySet(ds, size, warm)
			if len(qs) == 0 {
				continue
			}
			_, _, matches := c.averageRuns(Timing, qs, edges, graph.Timestamp(c.DefaultWindow))
			s.X = append(s.X, float64(size))
			s.Y = append(s.Y, matches)
		}
		bySize.Series = append(bySize.Series, s)
	}
	fig.Panels = []Panel{byWindow, bySize}
	return fig
}

// CostModelTable evaluates Theorem 7's expected join operations for a
// query across decomposition sizes (the cost model that drives Algorithm
// 6's preference for small k).
func CostModelTable(q *query.Query, ks []int) Series {
	s := Series{Label: "E[join ops]"}
	for _, k := range ks {
		s.X = append(s.X, float64(k))
		s.Y = append(s.Y, query.ExpectedJoinOps(q, k))
	}
	return s
}

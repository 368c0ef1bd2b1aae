package bench

import (
	"time"

	"timingsubg/internal/datagen"
	"timingsubg/internal/graph"
	"timingsubg/internal/query"
	"timingsubg/internal/querygen"
)

// Config scales the experiment suite. The paper's absolute sizes (windows
// of 10K-50K inter-arrival units over hundreds of millions of edges) are
// scaled down so every figure regenerates in seconds on a laptop; shapes,
// not absolute numbers, are the reproduction target (EXPERIMENTS.md).
type Config struct {
	// Datasets to evaluate (default: all three).
	Datasets []datagen.Dataset
	// Windows are the |W| values in stream units (Fig. 15/17: the
	// paper's 10K..50K scaled by Scale).
	Windows []int
	// QuerySizes are |E(Q)| values (Fig. 16/18: 6..21).
	QuerySizes []int
	// DefaultWindow is used when the window is fixed (Figs. 16/18/21/23).
	DefaultWindow int
	// DefaultQuerySize is used when the size is fixed (Figs. 15/17).
	DefaultQuerySize int
	// QueriesPerSetting is how many query graphs are generated per
	// setting (the paper uses 10 graphs × 5 orders; scaled down).
	QueriesPerSetting int
	// OrdersPerGraph is how many timing orders are drawn per graph: one
	// full, one empty, rest random (paper Section VII-B).
	OrdersPerGraph int
	// StreamLen is how many edges are measured per run.
	StreamLen int
	// Vertices is the generator population.
	Vertices int
	// KValues are the decomposition sizes for Figs. 23/24.
	KValues []int
	// KQuerySize is the query size for the decomposition-size experiment
	// (the paper fixes 12).
	KQuerySize int
	// MaxRunTime bounds each (method, query) run; truncated cells are
	// reported as such (0 = unlimited).
	MaxRunTime time.Duration
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns the scaled-down suite used by `go test -bench`
// and `cmd/experiments` defaults: every figure in seconds.
func DefaultConfig() Config {
	return Config{
		Datasets:          datagen.Datasets(),
		Windows:           []int{1000, 2000, 3000, 4000, 5000},
		QuerySizes:        []int{6, 9, 12, 15},
		DefaultWindow:     3000,
		DefaultQuerySize:  6,
		QueriesPerSetting: 1,
		OrdersPerGraph:    3,
		StreamLen:         2000,
		Vertices:          2500,
		KValues:           []int{1, 3, 6, 9, 12},
		KQuerySize:        12,
		MaxRunTime:        8 * time.Second,
		Seed:              42,
	}
}

// QuickConfig is a minimal configuration for smoke tests.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Windows = []int{500, 1000}
	c.QuerySizes = []int{4, 6}
	c.DefaultWindow = 800
	c.DefaultQuerySize = 4
	c.QueriesPerSetting = 1
	c.OrdersPerGraph = 2
	c.StreamLen = 1200
	c.Vertices = 1000
	c.KValues = []int{1, 3, 6}
	c.KQuerySize = 6
	c.MaxRunTime = 5 * time.Second
	return c
}

// QuerySet generates the benchmark queries for one dataset and query
// size following Section VII-B: QueriesPerSetting random-walk graphs,
// each with OrdersPerGraph timing orders (one full, one empty, the rest
// random).
func (c Config) QuerySet(ds datagen.Dataset, size int, warmup []graph.Edge) []GeneratedQuery {
	var out []GeneratedQuery
	for g := 0; g < c.QueriesPerSetting; g++ {
		for o := 0; o < c.OrdersPerGraph; o++ {
			kind := querygen.RandomOrder
			switch o {
			case 0:
				kind = querygen.FullOrder
			case 1:
				kind = querygen.EmptyOrder
			}
			seed := c.Seed + int64(int(ds)*10007+size*211+g*31+o)
			q, witness, err := querygen.Generate(warmup, querygen.Config{
				Size: size, Order: kind, Seed: seed})
			if err != nil {
				continue
			}
			out = append(out, GeneratedQuery{Query: q, Witness: witness, Order: kind})
		}
	}
	return out
}

// GeneratedQuery pairs a query with its embedding witness.
type GeneratedQuery struct {
	Query   *query.Query
	Witness []graph.Edge
	Order   querygen.OrderKind
}

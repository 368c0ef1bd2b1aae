// Package timingsubg is a Go implementation of time-constrained
// continuous subgraph search over streaming graphs (Li, Zou, Özsu, Zhao —
// ICDE 2019). It finds, continuously, every subgraph of a sliding-window
// snapshot that is isomorphic to a query graph and whose edge timestamps
// respect the query's timing-order constraints.
//
// The public API is one composable entry point, Open, which builds an
// Engine from a Config; durability, adaptivity, multi-query fleets
// (with optional sharded evaluation across a worker pool —
// Config.FleetWorkers), window kind and storage backend are orthogonal
// options of that one call:
//
//	labels := timingsubg.NewLabels()
//	b := timingsubg.NewQueryBuilder()
//	v := b.AddVertex(labels.Intern("victim"))
//	c := b.AddVertex(labels.Intern("cc-server"))
//	reg := b.AddEdge(v, c)
//	cmd := b.AddEdge(c, v)
//	b.Before(reg, cmd) // registration precedes command
//	q, _ := b.Build()
//
//	eng, _ := timingsubg.Open(timingsubg.Config{Query: q, Window: 30})
//	sub, _ := eng.Subscribe(timingsubg.SubscribeOptions{})
//	go func() {
//		for _, m := range sub.Matches() {
//			fmt.Println(m)
//		}
//	}()
//	for _, e := range edges {
//		eng.Feed(e)
//	}
//	eng.Close()
//
// Results are consumed through the subscription plane: Subscribe
// attaches any number of consumers at runtime, each with its own
// query-name filter, buffer and overflow policy (see SubscribeOptions);
// Config.OnMatch remains as a synchronous shim fixed at Open.
//
// See examples/ for runnable scenarios and DESIGN.md for architecture.
package timingsubg

import (
	"errors"

	"timingsubg/internal/core"
	"timingsubg/internal/graph"
	"timingsubg/internal/match"
	"timingsubg/internal/query"
)

// Core type aliases so users never import internal packages.
type (
	// Query is an immutable continuous query graph with timing order.
	Query = query.Query
	// QueryBuilder assembles a Query.
	QueryBuilder = query.Builder
	// Decomposition is a TC decomposition of a query.
	Decomposition = query.Decomposition
	// Match is a complete time-constrained match.
	Match = match.Match
	// Edge is a streaming-graph edge.
	Edge = graph.Edge
	// VertexID identifies a data vertex.
	VertexID = graph.VertexID
	// EdgeID identifies a data edge.
	EdgeID = graph.EdgeID
	// Timestamp is an edge arrival time.
	Timestamp = graph.Timestamp
	// Label is an interned label.
	Label = graph.Label
	// Labels is a label intern table.
	Labels = graph.Labels
)

// NoLabel is the zero Label, used for unlabelled edges.
const NoLabel = graph.NoLabel

// NewLabels returns an empty label intern table.
func NewLabels() *Labels { return graph.NewLabels() }

// NewQueryBuilder returns an empty query builder.
func NewQueryBuilder() *QueryBuilder { return query.NewBuilder() }

// Decompose computes the cost-model-guided TC decomposition of q.
func Decompose(q *Query) *Decomposition { return query.Decompose(q) }

// Storage selects the partial-match store.
type Storage = core.Storage

// Storage backends.
const (
	// MSTree is the match-store tree backend (default, recommended).
	MSTree = core.MSTree
	// Independent stores each partial match separately (ablation).
	Independent = core.Independent
)

// Options is the per-member override set of a fleet: QuerySpec.Options
// fields left zero inherit the fleet Config's value. (Open runs a
// single-query Config as a fleet of one member with these options.)
type Options struct {
	// Window is the time-based sliding-window duration |W| (the
	// paper's model). Exactly one of Window and CountWindow must be
	// positive.
	Window Timestamp
	// CountWindow, when positive, uses a count-based sliding window
	// holding the most recent CountWindow edges instead of a
	// time-based one. Timing-order match semantics are unchanged;
	// only the expiry rule differs.
	CountWindow int
	// Storage selects the partial-match backend (default MSTree).
	Storage Storage
	// Decomposition overrides the automatic TC decomposition.
	Decomposition *Decomposition
}

// ErrBadOptions reports an invalid configuration.
var ErrBadOptions = errors.New("timingsubg: invalid options")

// ErrOutOfOrder reports an edge pushed with a timestamp not strictly
// greater than the previous edge's (the paper's model, Definition 1,
// requires strictly increasing timestamps). It is the only per-edge
// feed error; any other Feed/FeedBatch error is environmental (e.g. a
// WAL write failure).
var ErrOutOfOrder = graph.ErrOutOfOrder

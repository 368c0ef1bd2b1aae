// Command tsrun executes a continuous time-constrained subgraph query
// over a stream file, printing matches (or just counters) and summary
// statistics.
//
// Usage:
//
//	tsrun -stream stream.csv -query query.txt -window 10000
//	tsrun -stream stream.csv -query query.txt -count-window 5000
//	tsrun -stream stream.csv -query query.txt -window 10000 -durable ./state
//	tsrun -stream stream.csv -query query.txt -window 10000 -adaptive
//	tsrun -stream stream.csv -query query.txt -window 10000 -durable ./state -adaptive
//	tsrun -stream stream.csv -query query.txt -window 10000 -metrics 127.0.0.1:9090
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"timingsubg"
	"timingsubg/internal/datagen"
	"timingsubg/internal/graph"
	"timingsubg/internal/query"
	"timingsubg/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, drives the stream through
// one engine and prints the summary to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tsrun", flag.ContinueOnError)
	streamPath := fs.String("stream", "", "stream file (CSV from tsgen, or SNAP with -snap)")
	snap := fs.Bool("snap", false, "stream file is SNAP temporal format: 'src dst unixtime' lines")
	queryPath := fs.String("query", "", "query file (see internal/query/parse.go format)")
	window := fs.Int64("window", 10000, "time-based sliding window |W| in stream time units")
	countWindow := fs.Int("count-window", 0, "count-based window of the latest N edges (overrides -window)")
	ind := fs.Bool("independent", false, "use independent partial-match storage (Timing-IND)")
	durable := fs.String("durable", "", "durability directory: WAL + checkpoints with crash recovery")
	adaptive := fs.Bool("adaptive", false, "enable adaptive join-order reoptimization")
	metricsAddr := fs.String("metrics", "", "serve the engine's live Stats as JSON on this address during the run")
	printMatches := fs.Bool("print", false, "print each match")
	explain := fs.Bool("explain", false, "print the compiled query plan before running")
	state := fs.Bool("state", false, "dump engine state (per-item populations) after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *streamPath == "" || *queryPath == "" {
		return errors.New("both -stream and -query are required")
	}

	labels := graph.NewLabels()
	qf, err := os.Open(*queryPath)
	if err != nil {
		return err
	}
	q, err := query.Parse(qf, labels)
	qf.Close()
	if err != nil {
		return err
	}

	if *explain {
		query.Explain(stdout, labels, q, query.Decompose(q))
	}

	sf, err := os.Open(*streamPath)
	if err != nil {
		return err
	}
	var edges []graph.Edge
	if *snap {
		edges, err = datagen.ReadSNAP(sf, labels, nil)
	} else {
		edges, err = datagen.ReadEdges(sf, labels)
	}
	sf.Close()
	if err != nil {
		return err
	}

	// Every flag is one Config field; which combinations compose is
	// Open's decision, and its error is the diagnostic.
	cfg := timingsubg.Config{Query: q, Window: timingsubg.Timestamp(*window)}
	if *countWindow > 0 {
		cfg.Window = 0
		cfg.CountWindow = *countWindow
	}
	if *ind {
		cfg.Storage = timingsubg.Independent
	}
	if *adaptive {
		cfg.Adaptive = &timingsubg.Adaptivity{}
	}
	if *durable != "" {
		cfg.Durable = &timingsubg.Durability{Dir: *durable}
	}
	if *printMatches {
		cfg.OnMatch = func(_ string, m *timingsubg.Match) { fmt.Fprintf(stdout, "match %s\n", m) }
	}
	eng, err := timingsubg.Open(cfg)
	if err != nil {
		return err
	}
	defer eng.Close() // error paths; Close is idempotent
	if st := eng.Stats(); st.Replayed > 0 || st.Matches > 0 {
		fmt.Fprintf(stdout, "recovered: %d durable matches, %d WAL edges replayed, window holds %d edges\n",
			st.Matches, st.Replayed, st.InWindow)
	}

	// A single-query engine must not be sampled while it is fed or
	// closed, so mu serializes those with each -metrics scrape.
	var mu sync.Mutex
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		go http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			mu.Lock()
			st := eng.Stats()
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(st)
		}))
		fmt.Fprintf(stdout, "metrics: http://%s\n", ln.Addr())
	}

	var hist stats.Histogram
	start := time.Now()
	for _, e := range edges {
		t0 := time.Now()
		mu.Lock()
		_, err := eng.Feed(e)
		mu.Unlock()
		if err != nil {
			return err
		}
		hist.Observe(time.Since(t0))
	}
	elapsed := time.Since(start)
	mu.Lock()
	err = eng.Close()
	mu.Unlock()
	if err != nil {
		return err
	}

	st := eng.Stats()
	if st.Adaptive {
		fmt.Fprintf(stdout, "join-order reoptimizations: %d\n", st.Reoptimizations)
	}
	fmt.Fprintf(stdout, "query: %d edges, decomposition k=%d\n", q.NumEdges(), st.K)
	fmt.Fprintf(stdout, "edges: %d  elapsed: %v  throughput: %.0f edges/sec\n",
		len(edges), elapsed.Round(time.Millisecond), float64(len(edges))/elapsed.Seconds())
	fmt.Fprintf(stdout, "matches: %d  discardable filtered: %d  partial matches held: %d  space: %d KB\n",
		st.Matches, st.Discarded, st.PartialMatches, st.SpaceBytes/1024)
	fmt.Fprintf(stdout, "per-edge latency: %s\n", hist.Snapshot())
	if *state {
		timingsubg.WriteState(stdout, eng)
	}
	return nil
}

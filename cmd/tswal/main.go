// Command tswal inspects a durability directory (Durability.Dir): its
// write-ahead-log segments and checkpoints. It reads both layouts: a
// single-query engine checkpoints directly in the directory, a fleet
// (every tsserved -wal directory) in ck/<query>/ per member.
//
// Usage:
//
//	tswal info <dir>                      summarize WAL + checkpoints
//	tswal dump <dir> [-from N] [-limit N] print WAL records
//	tswal checkpoint <dir> [query]        show a query's newest checkpoint
//
// tswal is read-only; it never mutates the directory and is safe to run
// against a live deployment (it may see a torn tail, which it reports
// the same way recovery would handle it).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"timingsubg/internal/checkpoint"
	"timingsubg/internal/graph"
	"timingsubg/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tswal:", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("usage: tswal {info|dump|checkpoint} <dir> [flags]")

// run is the whole command: it dispatches args to one subcommand, which
// prints to stdout.
func run(args []string, stdout io.Writer) error {
	if len(args) < 2 {
		return errUsage
	}
	cmd, dir := args[0], args[1]
	switch cmd {
	case "info":
		return info(stdout, dir)
	case "dump":
		fs := flag.NewFlagSet("dump", flag.ContinueOnError)
		from := fs.Int64("from", 0, "first sequence number to print")
		limit := fs.Int64("limit", 50, "maximum records to print (0 = all)")
		if err := fs.Parse(args[2:]); err != nil {
			return err
		}
		return dump(stdout, dir, *from, *limit)
	case "checkpoint":
		query := ""
		if len(args) > 2 {
			query = args[2]
		}
		return showCheckpoint(stdout, dir, query)
	}
	return errUsage
}

func info(w io.Writer, dir string) error {
	var first, count int64 = -1, 0
	var minT, maxT graph.Timestamp
	end, err := wal.Replay(dir, 0, func(seq int64, e graph.Edge) error {
		if first < 0 {
			first = seq
			minT = e.Time
		}
		maxT = e.Time
		count++
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "WAL: %d records", count)
	if count > 0 {
		fmt.Fprintf(w, " (seq %d..%d, time %d..%d)", first, end-1, minT, maxT)
	}
	fmt.Fprintln(w)

	queries, err := checkpoint.Queries(dir)
	if err != nil {
		return err
	}
	if len(queries) == 0 {
		fmt.Fprintln(w, "checkpoint: none (cold start)")
		return nil
	}
	// Recovery replays each query from its own cursor, so the log it
	// walks starts at the slowest one; a query without a readable
	// checkpoint joins at the retained horizon.
	horizon, err := wal.FirstSeq(dir)
	if err != nil {
		return err
	}
	var edges int
	slowest := int64(math.MaxInt64)
	for _, q := range queries {
		label := "checkpoint"
		if q != "" {
			label = fmt.Sprintf("checkpoint %q", q)
		}
		ck, ok, err := checkpoint.Load(checkpoint.Dir(dir, q))
		if err != nil {
			return err
		}
		if !ok {
			fmt.Fprintf(w, "%s: none (joins at the retained horizon, LSN %d)\n", label, horizon)
			slowest = min(slowest, horizon)
			continue
		}
		fmt.Fprintf(w, "%s: lsn=%d window=%d matches=%d discarded=%d in-window-edges=%d\n",
			label, ck.LSN(), ck.Window, ck.Matches, ck.Discarded, len(ck.Edges))
		edges += len(ck.Edges)
		slowest = min(slowest, ck.LSN())
	}
	fmt.Fprintf(w, "recovery would rebuild %d checkpointed edges and replay %d WAL records\n",
		edges, max(end-slowest, 0))
	fmt.Fprintf(w, "truncation gate: segments wholly below LSN %d are reclaimable\n", slowest)
	return nil
}

func dump(w io.Writer, dir string, from, limit int64) error {
	var printed int64
	_, err := wal.Replay(dir, from, func(seq int64, e graph.Edge) error {
		if limit > 0 && printed >= limit {
			return errStop
		}
		fmt.Fprintf(w, "%8d  %d→%d  labels(%d,%d,%d)  t=%d\n",
			seq, e.From, e.To, e.FromLabel, e.ToLabel, e.EdgeLabel, e.Time)
		printed++
		return nil
	})
	if err != nil && err != errStop {
		return err
	}
	if limit > 0 && printed == limit {
		fmt.Fprintf(w, "... (truncated at -limit %d)\n", limit)
	}
	return nil
}

var errStop = fmt.Errorf("stop")

func showCheckpoint(w io.Writer, dir, query string) error {
	ck, ok, err := checkpoint.Load(checkpoint.Dir(dir, query))
	if err != nil {
		return err
	}
	if !ok {
		// The listing only improves the message; its error changes nothing.
		if queries, _ := checkpoint.Queries(dir); query == "" && len(queries) > 0 && queries[0] != "" {
			return fmt.Errorf("%s is a fleet directory: name one of its queries (%s)", dir, strings.Join(queries, ", "))
		}
		return errors.New("no readable checkpoint")
	}
	fmt.Fprintf(w, "next-seq:   %d\n", ck.NextSeq)
	fmt.Fprintf(w, "window:     %d\n", ck.Window)
	fmt.Fprintf(w, "matches:    %d\n", ck.Matches)
	fmt.Fprintf(w, "discarded:  %d\n", ck.Discarded)
	fmt.Fprintf(w, "edges:      %d in window\n", len(ck.Edges))
	for i, e := range ck.Edges {
		if i >= 20 {
			fmt.Fprintf(w, "  ... (%d more)\n", len(ck.Edges)-i)
			break
		}
		fmt.Fprintf(w, "  %8d  %d→%d  labels(%d,%d,%d)  t=%d\n",
			e.ID, e.From, e.To, e.FromLabel, e.ToLabel, e.EdgeLabel, e.Time)
	}
	return nil
}

// Command tswal inspects a durability directory (Durability.Dir): its
// write-ahead-log segments and checkpoints.
//
// Usage:
//
//	tswal info <dir>                      summarize WAL + checkpoints
//	tswal dump <dir> [-from N] [-limit N] print WAL records
//	tswal checkpoint <dir>                show the newest checkpoint
//
// tswal is read-only; it never mutates the directory and is safe to run
// against a live deployment (it may see a torn tail, which it reports
// the same way recovery would handle it).
package main

import (
	"flag"
	"fmt"
	"os"

	"timingsubg/internal/checkpoint"
	"timingsubg/internal/graph"
	"timingsubg/internal/wal"
)

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	cmd, dir := os.Args[1], os.Args[2]
	switch cmd {
	case "info":
		info(dir)
	case "dump":
		fs := flag.NewFlagSet("dump", flag.ExitOnError)
		from := fs.Int64("from", 0, "first sequence number to print")
		limit := fs.Int64("limit", 50, "maximum records to print (0 = all)")
		fs.Parse(os.Args[3:])
		dump(dir, *from, *limit)
	case "checkpoint":
		showCheckpoint(dir)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tswal {info|dump|checkpoint} <dir> [flags]")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tswal:", err)
	os.Exit(1)
}

func info(dir string) {
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
		fail(err)
	}
	fmt.Printf("WAL: %d records", count)
	if count > 0 {
		fmt.Printf(" (seq %d..%d, time %d..%d)", first, end-1, minT, maxT)
	}
	fmt.Println()

	ck, ok, err := checkpoint.Load(dir)
	if err != nil {
		fail(err)
	}
	if !ok {
		fmt.Println("checkpoint: none (cold start)")
		return
	}
	fmt.Printf("checkpoint: lsn=%d window=%d matches=%d discarded=%d in-window-edges=%d\n",
		ck.LSN(), ck.Window, ck.Matches, ck.Discarded, len(ck.Edges))
	replay := end - ck.NextSeq
	if replay < 0 {
		replay = 0
	}
	fmt.Printf("recovery would rebuild %d checkpointed edges and replay %d WAL records\n",
		len(ck.Edges), replay)
	fmt.Printf("truncation gate: segments wholly below LSN %d are reclaimable\n", ck.LSN())
}

func dump(dir string, from, limit int64) {
	var printed int64
	_, err := wal.Replay(dir, from, func(seq int64, e graph.Edge) error {
		if limit > 0 && printed >= limit {
			return errStop
		}
		fmt.Printf("%8d  %d→%d  labels(%d,%d,%d)  t=%d\n",
			seq, e.From, e.To, e.FromLabel, e.ToLabel, e.EdgeLabel, e.Time)
		printed++
		return nil
	})
	if err != nil && err != errStop {
		fail(err)
	}
	if limit > 0 && printed == limit {
		fmt.Printf("... (truncated at -limit %d)\n", limit)
	}
}

var errStop = fmt.Errorf("stop")

func showCheckpoint(dir string) {
	ck, ok, err := checkpoint.Load(dir)
	if err != nil {
		fail(err)
	}
	if !ok {
		fmt.Println("no readable checkpoint")
		os.Exit(1)
	}
	fmt.Printf("next-seq:   %d\n", ck.NextSeq)
	fmt.Printf("window:     %d\n", ck.Window)
	fmt.Printf("matches:    %d\n", ck.Matches)
	fmt.Printf("discarded:  %d\n", ck.Discarded)
	fmt.Printf("edges:      %d in window\n", len(ck.Edges))
	for i, e := range ck.Edges {
		if i >= 20 {
			fmt.Printf("  ... (%d more)\n", len(ck.Edges)-i)
			break
		}
		fmt.Printf("  %8d  %d→%d  labels(%d,%d,%d)  t=%d\n",
			e.ID, e.From, e.To, e.FromLabel, e.ToLabel, e.EdgeLabel, e.Time)
	}
}

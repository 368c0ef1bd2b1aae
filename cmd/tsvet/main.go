// Command tsvet is the repo's own invariant checker: a multichecker
// in the spirit of `go vet -vettool`, built on internal/analysis,
// running the two custom analyzers that encode documented engine
// invariants generic linters cannot see:
//
//	lockhold   no blocking call (fsync, channel ops, net I/O,
//	           time.Sleep) while a sync.Mutex/RWMutex is held
//	hotclock   no raw time.Now()/time.Since() in the hot-path
//	           packages internal/core, internal/explist,
//	           internal/mstree
//
// Usage:
//
//	go run ./cmd/tsvet ./...
//
// Exit status is 1 when any diagnostic is reported. Intentional
// violations are waived in source with
//
//	//tsvet:allow <analyzer> — justification
//
// on the offending line or the line above it; see DESIGN.md §14.
package main

import (
	"flag"
	"fmt"
	"os"

	"timingsubg/internal/analysis"
	"timingsubg/internal/analysis/hotclock"
	"timingsubg/internal/analysis/lockhold"
)

// analyzers is the tsvet suite, in diagnostic-prefix order.
var analyzers = []*analysis.Analyzer{
	lockhold.Analyzer,
	hotclock.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tsvet [packages]\n\nRepo-specific invariant checkers:\n\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsvet: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsvet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		fmt.Printf("%s:%d:%d: %s (%s)\n", pos.Filename, pos.Line, pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tsvet: %d invariant violation(s)\n", len(diags))
		os.Exit(1)
	}
}

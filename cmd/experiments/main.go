// Command experiments regenerates the paper's evaluation figures
// (Section VII) as printed tables. Each figure's workload parameters are
// scaled for laptop runtimes (see EXPERIMENTS.md); relative shapes — who
// wins, by what factor, where trends bend — are the reproduction target.
// Figs. 19/20 (Section V's concurrent scheduler) are a recorded result,
// not a runnable figure: DESIGN.md §2 holds the measurements.
//
// Usage:
//
//	experiments -fig 15            # one figure
//	experiments -fig all           # everything (minutes)
//	experiments -fig 15 -quick     # smoke-sized workload
//	experiments -fig cost          # Theorem 7 cost model table
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"timingsubg/internal/bench"
	"timingsubg/internal/datagen"
	"timingsubg/internal/graph"
	"timingsubg/internal/querygen"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
}

// output is where a figure prints its tables, and the directory (empty
// for none) it also writes per-panel CSV files into.
type output struct {
	w      io.Writer
	csvDir string
}

// emit renders one figure, and writes its CSV files when asked to.
func (o output) emit(figs ...bench.Figure) error {
	for _, f := range figs {
		bench.Render(o.w, f)
		if o.csvDir != "" {
			if err := bench.WriteCSV(o.csvDir, f); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
		}
	}
	return nil
}

// figure is one runnable entry of -fig: the names that select it (a run
// that produces two of the paper's figures answers to both) and what it
// prints.
type figure struct {
	names []string
	run   func(bench.Config, output) error
}

// figures is every runnable entry, in the order -fig all runs them.
var figures = []figure{
	{[]string{"15", "17"}, func(c bench.Config, o output) error { return o.emit(pair(bench.Fig15and17(c))...) }},
	{[]string{"16", "18"}, func(c bench.Config, o output) error { return o.emit(pair(bench.Fig16and18(c))...) }},
	{[]string{"21"}, func(c bench.Config, o output) error { return o.emit(pair(bench.Fig21(c))...) }},
	{[]string{"23", "24"}, func(c bench.Config, o output) error { return o.emit(pair(bench.Fig23and24(c))...) }},
	{[]string{"22"}, func(c bench.Config, o output) error {
		bench.RenderCaseStudy(o.w, bench.CaseStudy(c.Seed, 800))
		return nil
	}},
	{[]string{"25"}, func(c bench.Config, o output) error { return o.emit(bench.Fig25(c)) }},
	{[]string{"table1"}, func(_ bench.Config, o output) error {
		bench.RenderTable1(o.w)
		return nil
	}},
	{[]string{"cost"}, func(c bench.Config, o output) error { return costTable(o.w, c) }},
}

func pair(a, b bench.Figure) []bench.Figure { return []bench.Figure{a, b} }

// recorded names the figures whose code is gone and whose measurements
// are kept as a recorded result.
var recorded = map[string]bool{"19": true, "20": true}

// run is the whole command: it parses args, checks every name -fig
// lists, then prints the selected figures to stdout in -fig all's order.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figures to regenerate, comma-separated: 15,16,17,18,21,22,23,24,25,cost,table1 or all")
	quick := fs.Bool("quick", false, "use the smoke-test workload scale")
	seed := fs.Int64("seed", 42, "master random seed")
	csvDir := fs.String("csv", "", "also write per-panel CSV files into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	selected, err := selectFigures(*fig)
	if err != nil {
		return err
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	cfg.Seed = *seed
	out := output{w: stdout, csvDir: *csvDir}
	for i, f := range figures {
		if selected[i] {
			if err := f.run(cfg, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// selectFigures resolves a -fig list to the entries of figures it
// selects. Every name must be known: an unknown or recorded-only name
// is an error that names it, so a typo never silently drops a figure.
func selectFigures(list string) ([]bool, error) {
	selected := make([]bool, len(figures))
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if recorded[name] {
			return nil, fmt.Errorf("figure %s is a recorded result, not runnable: Section V's concurrent scheduler was removed; DESIGN.md §2 records its Fig. 19/20 measurements and how to re-run them at commit 56be127, the last that has it", name)
		}
		found := false
		for i, f := range figures {
			for _, n := range f.names {
				if name == "all" || name == n {
					selected[i], found = true, true
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown figure %q (want 15,16,17,18,21,22,23,24,25,cost,table1 or all)", name)
		}
	}
	return selected, nil
}

// costTable prints Theorem 7's expected join operations per incoming
// edge for a representative query across decomposition sizes.
func costTable(w io.Writer, cfg bench.Config) error {
	labels := graph.NewLabels()
	gen := datagen.New(datagen.WikiTalk, labels, datagen.Config{Vertices: cfg.Vertices, Seed: cfg.Seed})
	warm := gen.Take(2000)
	q, _, err := querygen.Generate(warm, querygen.Config{Size: cfg.KQuerySize, Seed: cfg.Seed})
	if err != nil {
		return fmt.Errorf("cost: %w", err)
	}
	s := bench.CostModelTable(q, cfg.KValues)
	fmt.Fprintf(w, "== Theorem 7: expected join operations per incoming edge (|E(Q)|=%d) ==\n", q.NumEdges())
	fmt.Fprintf(w, "%-4s %s\n", "k", "N")
	for i := range s.X {
		fmt.Fprintf(w, "%-4.0f %.3f\n", s.X[i], s.Y[i])
	}
	fmt.Fprintln(w, "(increases with k: Algorithm 6 prefers the smallest decomposition)")
	return nil
}

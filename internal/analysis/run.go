package analysis

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Run executes every analyzer over every package of the program.
// Diagnostics come back position-sorted with //tsvet:allow
// suppressions already applied.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }
	var errs []error
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			pass := &Pass{
				Analyzer: a, Fset: prog.Fset,
				Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info,
				report: collect,
			}
			if err := a.Run(pass); err != nil {
				errs = append(errs, fmt.Errorf("%s (%s): %v", a.Name, pkg.Path, err))
			}
		}
	}
	diags = suppress(prog, diags)
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := prog.Fset.Position(diags[i].Pos), prog.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, errors.Join(errs...)
}

// allowPrefix introduces a suppression comment: the analyzer names it
// lists are waived on the comment's own line and the line below it,
// so both trailing and standalone-above placements work. Anything
// after the names is the human justification.
const allowPrefix = "tsvet:allow"

// suppress drops diagnostics waived by //tsvet:allow comments.
func suppress(prog *Program, diags []Diagnostic) []Diagnostic {
	if len(diags) == 0 {
		return diags
	}
	// allowed[file][line] = set of analyzer names waived on that line.
	allowed := make(map[string]map[int]map[string]bool)
	mark := func(file string, line int, names []string) {
		lines := allowed[file]
		if lines == nil {
			lines = make(map[int]map[string]bool)
			allowed[file] = lines
		}
		for _, l := range []int{line, line + 1} {
			set := lines[l]
			if set == nil {
				set = make(map[string]bool)
				lines[l] = set
			}
			for _, n := range names {
				set[n] = true
			}
		}
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names := parseAllow(c.Text)
					if len(names) == 0 {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					mark(pos.Filename, pos.Line, names)
				}
			}
		}
	}
	out := diags[:0]
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		if allowed[pos.Filename][pos.Line][d.Analyzer] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// parseAllow extracts the waived analyzer names from one comment, or
// nil when the comment is not a tsvet:allow directive.
func parseAllow(text string) []string {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, allowPrefix) {
		return nil
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil
	}
	var names []string
	for _, n := range strings.Split(fields[0], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

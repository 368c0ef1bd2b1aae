// Package analysis is a self-contained static-analysis framework for
// the repo's own invariant checkers (cmd/tsvet). It mirrors the shape
// of golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic —
// but is built entirely on the standard library's go/ast, go/types
// and go/importer, with packages loaded offline through export data
// produced by `go list -export` (no module downloads, no third-party
// dependency).
//
// Analyzers are per-package: Run is called once per loaded package
// with that package's syntax and type information.
//
// Diagnostics are suppressible at the offending line (or the line
// directly above it) with a
//
//	//tsvet:allow <name>[,<name>...] [— justification]
//
// comment naming the analyzer(s) being waived; run.go applies the
// suppression uniformly for cmd/tsvet and the analysistest harness,
// so fixtures exercise the escape hatch exactly as production code
// does.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //tsvet:allow suppression comments.
	Name string
	// Doc is the one-paragraph invariant statement shown by
	// `tsvet -help`.
	Doc string
	// Run performs the check, reporting findings via pass.Reportf.
	Run func(*Pass) error
}

// A Pass carries one analyzer invocation's view of the code.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files and Pkg/TypesInfo describe the package under analysis.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// A Package is one loaded, parsed and type-checked package.
type Package struct {
	Path  string
	Name  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Program is the unit tsvet analyzes: every package matched by the
// load patterns, sharing one FileSet.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
}

// Callee resolves the called function or method object of a call
// expression, or nil when the callee is not a named function (builtin,
// function-typed variable, type conversion). It sees through both
// plain identifiers and selector calls, including methods promoted
// from embedded fields.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsMethodOn reports whether fn is the named method on the named type
// of the named package (receiver pointerness ignored), e.g.
// IsMethodOn(fn, "sync", "Mutex", "Lock").
func IsMethodOn(fn *types.Func, pkgPath, typeName, method string) bool {
	if fn == nil || fn.Name() != method || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == typeName
}

// IsFunc reports whether fn is the named package-level function, e.g.
// IsFunc(fn, "time", "Sleep").
func IsFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

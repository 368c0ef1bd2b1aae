package timingsubg_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"timingsubg"
)

// TestNoDeprecatedAPI keeps Open the only way in: the package carries
// no deprecation marker (a deprecated identifier is a second API kept
// alive), exports nothing named after the deleted per-capability
// façades, their delivery helpers or the deleted Section V scheduler,
// and neither Config nor Options has a field named after the scheduler's
// old options.
func TestNoDeprecatedAPI(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	marker := "Deprecated" + ":" // split so this file carries no marker itself
	removed := regexp.MustCompile(`Searcher|MatchChannel|MatchDeduper|LockScheme|FineGrained|AllLocks|RegisterMetrics|MetricsRegistry|MetricsHandler|SubscriptionCounters`)
	exported := func(pos token.Pos, name string) {
		if ast.IsExported(name) && removed.MatchString(name) {
			t.Errorf("%s: exported identifier %s revives a deleted API", fset.Position(pos), name)
		}
	}
	schedulerField := map[string]bool{"Workers": true, "LockScheme": true}
	configFields := func(sp *ast.TypeSpec) {
		st, ok := sp.Type.(*ast.StructType)
		if !ok || (sp.Name.Name != "Config" && sp.Name.Name != "Options") {
			return
		}
		for _, f := range st.Fields.List {
			for _, n := range f.Names {
				if schedulerField[n.Name] {
					t.Errorf("%s: %s.%s revives the deleted Section V scheduler's option", fset.Position(n.Pos()), sp.Name.Name, n.Name)
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for path, f := range pkg.Files {
			for _, cg := range f.Comments {
				if strings.Contains(cg.Text(), marker) {
					t.Errorf("%s: deprecation marker", fset.Position(cg.Pos()))
				}
			}
			if strings.HasSuffix(path, "_test.go") {
				continue // Test*/Example* names are not package API
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					exported(d.Pos(), d.Name.Name)
				case *ast.GenDecl:
					for _, sp := range d.Specs {
						switch sp := sp.(type) {
						case *ast.TypeSpec:
							exported(sp.Pos(), sp.Name.Name)
							configFields(sp)
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								exported(n.Pos(), n.Name)
							}
						}
					}
				}
			}
		}
	}
}

// buildTwoHop builds the query a→b→c with (a→b) ≺ (b→c).
func buildTwoHop(t *testing.T) (*timingsubg.Query, *timingsubg.Labels, []timingsubg.Label) {
	t.Helper()
	labels := timingsubg.NewLabels()
	ls := []timingsubg.Label{labels.Intern("a"), labels.Intern("b"), labels.Intern("c")}
	b := timingsubg.NewQueryBuilder()
	va, vb, vc := b.AddVertex(ls[0]), b.AddVertex(ls[1]), b.AddVertex(ls[2])
	e1 := b.AddEdge(va, vb)
	e2 := b.AddEdge(vb, vc)
	b.Before(e1, e2)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q, labels, ls
}

func TestSearcherBasics(t *testing.T) {
	q, _, ls := buildTwoHop(t)
	var got []string
	s, err := timingsubg.Open(timingsubg.Config{
		Query:   q,
		Window:  10,
		OnMatch: func(_ string, m *timingsubg.Match) { got = append(got, m.Key()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(f, to int64, fl, tl timingsubg.Label, tm int64) {
		t.Helper()
		if _, err := s.Feed(timingsubg.Edge{
			From: timingsubg.VertexID(f), To: timingsubg.VertexID(to),
			FromLabel: fl, ToLabel: tl, Time: timingsubg.Timestamp(tm),
		}); err != nil {
			t.Fatal(err)
		}
	}
	feed(1, 2, ls[0], ls[1], 1) // a→b
	feed(2, 3, ls[1], ls[2], 2) // b→c: completes
	feed(2, 4, ls[1], ls[2], 3) // b→c again: second match
	s.Close()
	if len(got) != 2 {
		t.Fatalf("want 2 matches, got %v", got)
	}
	st := s.Stats()
	if st.Matches != 2 {
		t.Errorf("Matches: want 2, got %d", st.Matches)
	}
	if st.InWindow != 3 {
		t.Errorf("InWindow: want 3, got %d", st.InWindow)
	}
	if st.K != 1 {
		t.Errorf("two ordered edges are one TC-query; got k=%d", st.K)
	}
	if st.SpaceBytes <= 0 || st.PartialMatches <= 0 {
		t.Error("space accounting must be positive with live partials")
	}
}

func TestSearcherTimingOrderFilters(t *testing.T) {
	q, _, ls := buildTwoHop(t)
	s, err := timingsubg.Open(timingsubg.Config{Query: q, Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	// b→c first, then a→b: structure matches, timing order does not.
	if _, err := s.Feed(timingsubg.Edge{From: 2, To: 3, FromLabel: ls[1], ToLabel: ls[2], Time: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Feed(timingsubg.Edge{From: 1, To: 2, FromLabel: ls[0], ToLabel: ls[1], Time: 2}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if s.Stats().Matches != 0 {
		t.Error("reversed arrivals must not match under the timing order")
	}
	if s.Stats().Discarded == 0 {
		t.Error("the b→c edge is discardable (no a→b precedes it)")
	}
}

func TestSearcherWindowExpiry(t *testing.T) {
	q, _, ls := buildTwoHop(t)
	s, err := timingsubg.Open(timingsubg.Config{Query: q, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	must := func(e timingsubg.Edge) {
		t.Helper()
		if _, err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	must(timingsubg.Edge{From: 1, To: 2, FromLabel: ls[0], ToLabel: ls[1], Time: 1})
	// Let it expire: window (2,5] no longer holds t=1.
	must(timingsubg.Edge{From: 9, To: 9, FromLabel: ls[2], ToLabel: ls[2], Time: 5})
	must(timingsubg.Edge{From: 2, To: 3, FromLabel: ls[1], ToLabel: ls[2], Time: 6})
	s.Close()
	if s.Stats().Matches != 0 {
		t.Error("expired prefix must not contribute to matches")
	}
}

func TestSearcherOptionValidation(t *testing.T) {
	q, _, _ := buildTwoHop(t)
	if _, err := timingsubg.Open(timingsubg.Config{Query: q}); !errors.Is(err, timingsubg.ErrBadOptions) {
		t.Errorf("zero window must be rejected, got %v", err)
	}
}

func TestSearcherRejectsOutOfOrderFeeds(t *testing.T) {
	q, _, ls := buildTwoHop(t)
	s, err := timingsubg.Open(timingsubg.Config{Query: q, Window: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Feed(timingsubg.Edge{From: 1, To: 2, FromLabel: ls[0], ToLabel: ls[1], Time: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Feed(timingsubg.Edge{From: 1, To: 2, FromLabel: ls[0], ToLabel: ls[1], Time: 5}); !errors.Is(err, timingsubg.ErrOutOfOrder) {
		t.Errorf("non-increasing timestamps must be rejected with ErrOutOfOrder, got %v", err)
	}
}

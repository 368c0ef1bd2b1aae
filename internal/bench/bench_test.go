package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"timingsubg/internal/datagen"
	"timingsubg/internal/graph"
	"timingsubg/internal/querygen"
)

func tinyConfig() Config {
	c := QuickConfig()
	c.Windows = []int{300}
	c.QuerySizes = []int{4}
	c.DefaultWindow = 300
	c.DefaultQuerySize = 4
	c.QueriesPerSetting = 1
	c.OrdersPerGraph = 1 // full order only: cheapest
	c.StreamLen = 600
	c.Vertices = 600
	c.KValues = []int{1, 4}
	c.KQuerySize = 4
	return c
}

func TestMethodsCoverAll(t *testing.T) {
	if len(Methods()) != 6 {
		t.Fatalf("the paper compares 6 methods, got %d", len(Methods()))
	}
	seen := map[string]bool{}
	for _, m := range Methods() {
		name := m.String()
		if seen[name] || strings.HasPrefix(name, "method#") {
			t.Errorf("bad method name %q", name)
		}
		seen[name] = true
	}
}

func TestNewMatcherAllMethods(t *testing.T) {
	c := tinyConfig()
	warm, edges := c.stream(datagen.WikiTalk, c.DefaultWindow)
	qs := c.QuerySet(datagen.WikiTalk, 4, warm)
	if len(qs) == 0 {
		t.Skip("no query generated")
	}
	var counts []int64
	for _, m := range Methods() {
		r := Run(NewMatcher(m, qs[0].Query), edges, graph.Timestamp(c.DefaultWindow))
		if r.Throughput <= 0 {
			t.Errorf("%s: non-positive throughput", m)
		}
		if r.AvgSpace < 0 {
			t.Errorf("%s: negative space", m)
		}
		counts = append(counts, r.Matches)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Errorf("method %s found %d matches, %s found %d",
				Methods()[i], counts[i], Methods()[0], counts[0])
		}
	}
}

func TestQuerySetShape(t *testing.T) {
	c := tinyConfig()
	c.OrdersPerGraph = 3
	c.QueriesPerSetting = 2
	warm, _ := c.stream(datagen.WikiTalk, c.DefaultWindow)
	qs := c.QuerySet(datagen.WikiTalk, 4, warm)
	if len(qs) == 0 {
		t.Skip("no queries generated")
	}
	var full, empty int
	for _, gq := range qs {
		if gq.Query.NumEdges() != 4 {
			t.Errorf("query size drifted: %d", gq.Query.NumEdges())
		}
		switch gq.Order {
		case querygen.FullOrder:
			full++
		case querygen.EmptyOrder:
			empty++
		}
	}
	if full == 0 || empty == 0 {
		t.Error("query set must include one full and one empty order per graph")
	}
}

func TestFigure21Ablation(t *testing.T) {
	c := tinyConfig()
	tf, sf := Fig21(c)
	if len(tf.Panels) != 1 || len(sf.Panels) != 1 {
		t.Fatal("fig21 must have one panel each")
	}
	if len(tf.Panels[0].Series) != 4 {
		t.Fatalf("fig21 compares 4 variants, got %d", len(tf.Panels[0].Series))
	}
	for _, s := range tf.Panels[0].Series {
		if len(s.Y) == 0 {
			t.Errorf("variant %s has no measurements", s.Label)
		}
	}
}

func TestFig23and24(t *testing.T) {
	c := tinyConfig()
	c.Datasets = []datagen.Dataset{datagen.WikiTalk}
	tput, space := Fig23and24(c)
	if len(tput.Panels) != 1 || len(space.Panels) != 1 {
		t.Fatal("one panel per dataset")
	}
	found := false
	for _, s := range tput.Panels[0].Series {
		if len(s.X) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("fig23 produced no data points")
	}
}

func TestRenderOutput(t *testing.T) {
	fig := Figure{
		Name: "FigX", Title: "Test", XLabel: "X", YLabel: "Y",
		Panels: []Panel{{
			Name: "panel",
			Series: []Series{
				{Label: "s1", X: []float64{1, 2}, Y: []float64{10, 2000000}},
				{Label: "s2", X: []float64{1}, Y: []float64{0.5}},
			},
		}},
	}
	var buf bytes.Buffer
	Render(&buf, fig)
	out := buf.String()
	for _, want := range []string{"FigX", "panel", "s1", "s2", "2e+06", "0.50", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestCostModelTable(t *testing.T) {
	c := tinyConfig()
	warm, _ := c.stream(datagen.WikiTalk, c.DefaultWindow)
	qs := c.QuerySet(datagen.WikiTalk, 4, warm)
	if len(qs) == 0 {
		t.Skip("no query")
	}
	s := CostModelTable(qs[0].Query, []int{1, 2, 3, 4})
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] <= s.Y[i-1] {
			t.Error("Theorem 7 cost must increase with k")
		}
	}
}

func TestWriteCSV(t *testing.T) {
	fig := Figure{
		Name: "FigT", XLabel: "Window Size",
		Panels: []Panel{{
			Name: "Net/Flow",
			Series: []Series{
				{Label: "Timing", X: []float64{1, 2}, Y: []float64{10, 20}},
				{Label: "SJ-tree", X: []float64{1}, Y: []float64{5}},
			},
		}},
	}
	dir := t.TempDir()
	if err := WriteCSV(dir, fig); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/FigT_Net-Flow.csv")
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	want := "Window_Size,Timing,SJ-tree\n1,10\n" // prefix check below
	_ = want
	if !strings.HasPrefix(got, "Window_Size,Timing,SJ-tree\n") {
		t.Errorf("header wrong:\n%s", got)
	}
	if !strings.Contains(got, "1,10,5") || !strings.Contains(got, "2,20,") {
		t.Errorf("rows wrong:\n%s", got)
	}
}

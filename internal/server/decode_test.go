package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"timingsubg"
	"timingsubg/client"
)

// FuzzIngestLine is the plain decoder's differential test: whenever
// parseEdge accepts a line, encoding/json accepts it too and decodes
// the same fields. Lines parseEdge declines go to encoding/json in the
// handler, so they need no property here.
func FuzzIngestLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		var p plainEdge
		if !parseEdge(line, &p) {
			return
		}
		var e client.Edge
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("parseEdge accepted %q, encoding/json rejects it: %v", line, err)
		}
		if p.from != e.From || p.to != e.To || p.time != e.Time ||
			string(p.fromLabel) != e.FromLabel || string(p.toLabel) != e.ToLabel || string(p.label) != e.Label {
			t.Fatalf("%q: parseEdge read %+v, encoding/json %+v", line, p, e)
		}
	})
}

// TestParseEdgeAllocs pins the plain path of an ingest line at zero
// allocations: parseEdge plus three interning hits.
func TestParseEdgeAllocs(t *testing.T) {
	labels := timingsubg.NewLabels()
	line := []byte(`{"from":1,"to":2,"from_label":"IP","to_label":"Host","label":"ping","time":42}`)
	want := [3]timingsubg.Label{labels.Intern("IP"), labels.Intern("Host"), labels.Intern("ping")}
	var p plainEdge
	var got [3]timingsubg.Label
	allocs := testing.AllocsPerRun(100, func() {
		if !parseEdge(line, &p) {
			t.Fatalf("parseEdge declined %q", line)
		}
		got = [3]timingsubg.Label{labels.InternBytes(p.fromLabel), labels.InternBytes(p.toLabel), labels.InternBytes(p.label)}
	})
	if allocs != 0 {
		t.Fatalf("parseEdge + 3 InternBytes hits: %v allocs, want 0", allocs)
	}
	if p.from != 1 || p.to != 2 || p.time != 42 || got != want || !bytes.Equal(p.label, []byte("ping")) {
		t.Fatalf("decoded %+v labels %v, want 1→2 at 42 with labels %v", p, got, want)
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"

	"timingsubg"
)

// durableDir feeds 400 edges through a durable engine opened with cfg
// in a fresh directory, closes it (writing final checkpoints at LSN
// 400) and returns the directory.
func durableDir(t *testing.T, cfg timingsubg.Config) string {
	t.Helper()
	dir := t.TempDir()
	cfg.Window = 50
	cfg.Durable = &timingsubg.Durability{Dir: dir}
	eng, err := timingsubg.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		e := timingsubg.Edge{From: timingsubg.VertexID(i % 7), To: timingsubg.VertexID(i % 5), Time: timingsubg.Timestamp(i + 1)}
		if _, err := eng.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func oneEdgeQuery(t *testing.T) *timingsubg.Query {
	t.Helper()
	b := timingsubg.NewQueryBuilder()
	b.AddEdge(b.AddVertex(timingsubg.NoLabel), b.AddVertex(timingsubg.NoLabel))
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func runOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// TestInfoReadsBothLayouts: info finds a single engine's checkpoint in
// the directory itself and a fleet's under ck/<query>, one line per
// query, and reports the replay from the slowest cursor.
func TestInfoReadsBothLayouts(t *testing.T) {
	q := oneEdgeQuery(t)
	cases := []struct {
		name string
		cfg  timingsubg.Config
		want []string
	}{
		{"single", timingsubg.Config{Query: q}, []string{
			"checkpoint: lsn=400 window=50 ",
		}},
		{"fleet", timingsubg.Config{Queries: []timingsubg.QuerySpec{{Name: "a", Query: q}, {Name: "b", Query: q}}}, []string{
			`checkpoint "a": lsn=400 window=50 `,
			`checkpoint "b": lsn=400 window=50 `,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := durableDir(t, tc.cfg)
			out, err := runOut(t, "info", dir)
			if err != nil {
				t.Fatal(err)
			}
			want := append(tc.want,
				"replay 0 WAL records",
				"segments wholly below LSN 400 are reclaimable")
			for _, w := range want {
				if !strings.Contains(out, w) {
					t.Errorf("info output lacks %q:\n%s", w, out)
				}
			}
			if strings.Contains(out, "cold start") {
				t.Errorf("info reports a cold start:\n%s", out)
			}
		})
	}
}

// TestCheckpointNamesFleetQuery: checkpoint reads a single engine's
// directory as is and a fleet member's by name.
func TestCheckpointNamesFleetQuery(t *testing.T) {
	q := oneEdgeQuery(t)
	single := durableDir(t, timingsubg.Config{Query: q})
	if out, err := runOut(t, "checkpoint", single); err != nil || !strings.Contains(out, "next-seq:   400") {
		t.Fatalf("single checkpoint: err=%v\n%s", err, out)
	}
	fleet := durableDir(t, timingsubg.Config{Queries: []timingsubg.QuerySpec{{Name: "a", Query: q}, {Name: "b", Query: q}}})
	if out, err := runOut(t, "checkpoint", fleet, "b"); err != nil || !strings.Contains(out, "next-seq:   400") {
		t.Fatalf("fleet checkpoint b: err=%v\n%s", err, out)
	}
	if _, err := runOut(t, "checkpoint", fleet); err == nil || !strings.Contains(err.Error(), "a, b") {
		t.Fatalf("unnamed fleet checkpoint: err=%v, want the query names", err)
	}
}

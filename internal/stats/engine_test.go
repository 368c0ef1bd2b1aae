package stats

import (
	"reflect"
	"testing"
)

// nonMetric lists the Stats fields that are deliberately not rows of
// the counter table: capability flags, nested snapshots and per-shard
// slices. Every other field must have a row.
var nonMetric = map[string]bool{
	"Adaptive": true, "Durable": true, "Fleet": true,
	"Queries": true, "Groups": true, "Stages": true, "Detection": true,
	"ShardMembers": true, "ShardBusyNs": true,
}

// TestCounterTableCoversStats: a Stats field added without a Counters
// row (or an entry above) fails here, as does a duplicate row or a
// wire or Prometheus name declared twice.
func TestCounterTableCoversStats(t *testing.T) {
	rows := map[string]bool{}
	names := map[string]string{}
	claim := func(kind, name, field string) {
		if prev, dup := names[kind+name]; dup {
			t.Errorf("%s name %q is declared by both %s and %s", kind, name, prev, field)
		}
		names[kind+name] = field
	}
	for i := range Counters {
		c := &Counters[i]
		if rows[c.Field] {
			t.Errorf("field %s has two rows", c.Field)
		}
		rows[c.Field] = true
		if c.Name == "" {
			t.Errorf("field %s has no JSON tag to take its wire name from", c.Field)
		}
		claim("wire", c.Name, c.Field)
		for _, scope := range []Scope{Engine, Query, Tenant} {
			if c.Scopes&scope == 0 {
				continue
			}
			if c.Prom == "" {
				t.Errorf("field %s is exposed on /metrics without a Prometheus stem", c.Field)
			}
			claim("prom", c.PromName(scope), c.Field)
		}
	}
	st := reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		if f := st.Field(i); rows[f.Name] == nonMetric[f.Name] {
			t.Errorf("Stats.%s must be either a Counters row or in nonMetric (row=%v)", f.Name, rows[f.Name])
		}
	}
}

// TestStageListCoversPipeline: every Pipeline histogram is snapshotted
// by exactly one StageStats field and listed once, under a unique wire
// name, in the iteration order.
func TestStageListCoversPipeline(t *testing.T) {
	p := NewPipeline()
	pv := reflect.ValueOf(p).Elem()
	for i := 0; i < pv.NumField(); i++ {
		// i+1 samples in histogram i make each one distinguishable.
		h := pv.Field(i).Addr().Interface().(*AtomicHistogram)
		for n := 0; n <= i; n++ {
			h.Observe(1)
		}
	}
	byCount, names := map[uint64]string{}, map[string]bool{}
	EachStage(p.Snapshot(), func(name string, snap *Snapshot) {
		if prev, dup := byCount[snap.Count]; dup {
			t.Errorf("stages %q and %q snapshot the same histogram", prev, name)
		}
		if name == "" || names[name] {
			t.Errorf("stage wire name %q is empty or listed twice", name)
		}
		byCount[snap.Count], names[name] = name, true
	})
	for i := 0; i < pv.NumField(); i++ {
		if _, ok := byCount[uint64(i+1)]; !ok {
			t.Errorf("Pipeline.%s is in no StageStats field", pv.Type().Field(i).Name)
		}
	}
}

package shard

import (
	"math/rand"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/gen"
	"gtpq/internal/gtea"
)

// compositeCounters are the work counters of a workload, summed over
// its queries.
type compositeCounters struct {
	input, pruneInput, enumInput, index, intermediate, results int64
}

// compositeCountersGolden was recorded by evaluating compositeWorkload
// through the composite index of a three-shard engine. A row moves
// only when the work the evaluations do moves.
var compositeCountersGolden = map[[2]string]compositeCounters{
	{"threehop", "plan"}:       {39761, 39405, 356, 18435, 5170, 1867},
	{"threehop", "noplan"}:     {18557, 18201, 356, 35715, 5170, 1867},
	{"threehop", "nocontours"}: {18557, 18201, 356, 569249, 5170, 1867},
	{"tc", "plan"}:             {39761, 39405, 356, 4123, 5170, 1867},
	{"tc", "noplan"}:           {18557, 18201, 356, 22376, 5170, 1867},
	{"tc", "nocontours"}:       {18557, 18201, 356, 124459, 5170, 1867},
}

// TestCompositeCountersGolden pins the summed counters of a random
// workload evaluated by one flat engine over Union and CompositeIndex
// of a K=3 engine: both backends, the planner on and off, and the
// pairwise-probe ablation. The composite index routes every contour
// probe to a per-shard index, so this is the evaluation path of no
// single shard engine.
func TestCompositeCountersGolden(t *testing.T) {
	g := gen.Forest(rand.New(rand.NewSource(61)), 9, 40, 90, testLabels)
	plan, err := Partition(g, 3, ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(62))
	qs := make([]*core.Query, 40)
	for i := range qs {
		qs[i] = gen.Query(r, 2+r.Intn(4), testLabels, true, true)
	}
	modes := map[string]gtea.Options{"plan": {}, "noplan": {NoPlan: true}, "nocontours": {NoContours: true}}
	got := map[[2]string]compositeCounters{}
	for _, kind := range []string{"threehop", "tc"} {
		se, err := NewEngine(g, plan, Options{Index: kind})
		if err != nil {
			t.Fatal(err)
		}
		union, ci := se.Union(), se.CompositeIndex()
		for mode, opt := range modes {
			e := gtea.NewWithIndex(union, ci, opt)
			var c compositeCounters
			for _, q := range qs {
				_, st := e.EvalStats(q)
				c.input += st.Input
				c.pruneInput += st.PruneInput
				c.enumInput += st.EnumInput
				c.index += st.Index
				c.intermediate += st.Intermediate
				c.results += st.Results
			}
			got[[2]string{kind, mode}] = c
		}
	}
	if len(got) != len(compositeCountersGolden) {
		t.Errorf("%d combinations ran, the table has %d rows", len(got), len(compositeCountersGolden))
	}
	for key, want := range compositeCountersGolden {
		if c, ok := got[key]; !ok {
			t.Errorf("%v: not run", key)
		} else if c != want {
			t.Errorf("%v: counters %+v, want %+v", key, c, want)
		}
	}
}

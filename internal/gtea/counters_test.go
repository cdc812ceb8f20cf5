package gtea

import (
	"math/rand"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/delta"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// counters are the exact work counters of one evaluation: the paper's
// cost measures (Fig 10: Input, Index, Intermediate) and the result
// count.
type counters struct {
	input, pruneInput, enumInput, index, intermediate, results int64
}

// evalCountersGolden was recorded by running every BenchmarkEval
// fixture and every overlayFixtures entry once. A row moves only when the work an evaluation does
// moves: a different kernel choice, a list scanned in another order, a
// lookup charged twice or not at all.
var evalCountersGolden = []struct {
	graph, kind, query, mode string
	want                     counters
}{
	{"skewed", "tc", "chain", "noplan", counters{2970, 2889, 81, 60152, 406, 103}},
	{"skewed", "tc", "chain", "plan", counters{2970, 2889, 81, 60152, 406, 103}},
	{"skewed", "tc", "mixed", "noplan", counters{2221, 2221, 0, 39037, 280, 140}},
	{"skewed", "tc", "mixed", "plan", counters{2221, 2221, 0, 39037, 280, 140}},
	{"skewed", "tc", "star", "noplan", counters{2639, 2639, 0, 142233, 172, 86}},
	{"skewed", "tc", "star", "plan", counters{2639, 2639, 0, 142233, 172, 86}},
	{"skewed", "threehop", "chain", "noplan", counters{2970, 2889, 81, 13817, 406, 103}},
	{"skewed", "threehop", "chain", "plan", counters{4526, 4445, 81, 6739, 406, 103}},
	{"skewed", "threehop", "mixed", "noplan", counters{2221, 2221, 0, 7589, 280, 140}},
	{"skewed", "threehop", "mixed", "plan", counters{6294, 6294, 0, 0, 280, 140}},
	{"skewed", "threehop", "star", "noplan", counters{2639, 2639, 0, 6504, 172, 86}},
	{"skewed", "threehop", "star", "plan", counters{5434, 5434, 0, 0, 172, 86}},
	{"uniform", "tc", "neg", "noplan", counters{2566, 2566, 0, 34600, 290, 145}},
	{"uniform", "tc", "neg", "plan", counters{2566, 2566, 0, 34600, 290, 145}},
	{"uniform", "tc", "pair", "noplan", counters{4172, 3434, 738, 394804, 11030, 4333}},
	{"uniform", "tc", "pair", "plan", counters{4172, 3434, 738, 394804, 11030, 4333}},
	{"uniform", "tc", "scan", "noplan", counters{880, 880, 0, 0, 1760, 880}},
	{"uniform", "tc", "scan", "plan", counters{880, 880, 0, 0, 1760, 880}},
	{"uniform", "threehop", "neg", "noplan", counters{2566, 2566, 0, 4871, 290, 145}},
	{"uniform", "threehop", "neg", "plan", counters{5570, 5570, 0, 0, 290, 145}},
	{"uniform", "threehop", "pair", "noplan", counters{4172, 3434, 738, 4505761, 11030, 4333}},
	{"uniform", "threehop", "pair", "plan", counters{9281, 8543, 738, 4494280, 11030, 4333}},
	{"uniform", "threehop", "scan", "noplan", counters{880, 880, 0, 0, 1760, 880}},
	{"uniform", "threehop", "scan", "plan", counters{880, 880, 0, 0, 1760, 880}},
	{"skewed", "tc", "chain", "nocontours", counters{2970, 2889, 81, 65682, 406, 103}},
	{"skewed", "tc", "mixed", "nocontours", counters{2221, 2221, 0, 374185, 280, 140}},
	{"skewed", "tc", "star", "nocontours", counters{2639, 2639, 0, 277170, 172, 86}},
	{"skewed", "threehop", "chain", "nocontours", counters{2970, 2889, 81, 635728, 406, 103}},
	{"skewed", "threehop", "mixed", "nocontours", counters{2221, 2221, 0, 4001562, 280, 140}},
	{"skewed", "threehop", "star", "nocontours", counters{2639, 2639, 0, 3178718, 172, 86}},
	{"uniform", "tc", "neg", "nocontours", counters{2566, 2566, 0, 455856, 290, 145}},
	{"uniform", "tc", "pair", "nocontours", counters{4172, 3434, 738, 1208865, 11030, 4333}},
	{"uniform", "tc", "scan", "nocontours", counters{880, 880, 0, 0, 1760, 880}},
	{"uniform", "threehop", "neg", "nocontours", counters{2566, 2566, 0, 4203059, 290, 145}},
	{"uniform", "threehop", "pair", "nocontours", counters{4172, 3434, 738, 13830687, 11030, 4333}},
	{"uniform", "threehop", "scan", "nocontours", counters{880, 880, 0, 0, 1760, 880}},
	{"small-skewed+delta", "tc", "chain", "nocontours", counters{706, 706, 0, 14527, 0, 0}},
	{"small-skewed+delta", "tc", "chain", "noplan", counters{706, 706, 0, 3846, 0, 0}},
	{"small-skewed+delta", "tc", "chain", "plan", counters{706, 706, 0, 3846, 0, 0}},
	{"small-skewed+delta", "tc", "mixed", "nocontours", counters{567, 567, 0, 269200, 20, 10}},
	{"small-skewed+delta", "tc", "mixed", "noplan", counters{567, 567, 0, 3833, 20, 10}},
	{"small-skewed+delta", "tc", "mixed", "plan", counters{567, 567, 0, 3833, 20, 10}},
	{"small-skewed+delta", "tc", "star", "nocontours", counters{682, 682, 0, 254492, 16, 8}},
	{"small-skewed+delta", "tc", "star", "noplan", counters{682, 682, 0, 14577, 16, 8}},
	{"small-skewed+delta", "tc", "star", "plan", counters{682, 682, 0, 14577, 16, 8}},
	{"small-skewed+delta", "threehop", "chain", "nocontours", counters{706, 706, 0, 50707, 0, 0}},
	{"small-skewed+delta", "threehop", "chain", "noplan", counters{706, 706, 0, 1835, 0, 0}},
	{"small-skewed+delta", "threehop", "chain", "plan", counters{782, 782, 0, 0, 0, 0}},
	{"small-skewed+delta", "threehop", "mixed", "nocontours", counters{567, 567, 0, 1007856, 20, 10}},
	{"small-skewed+delta", "threehop", "mixed", "noplan", counters{567, 567, 0, 3119, 20, 10}},
	{"small-skewed+delta", "threehop", "mixed", "plan", counters{1482, 1482, 0, 0, 20, 10}},
	{"small-skewed+delta", "threehop", "star", "nocontours", counters{682, 682, 0, 919567, 16, 8}},
	{"small-skewed+delta", "threehop", "star", "noplan", counters{682, 682, 0, 15121, 16, 8}},
	{"small-skewed+delta", "threehop", "star", "plan", counters{1279, 1279, 0, 0, 16, 8}},
	{"small-uniform+delta", "tc", "neg", "nocontours", counters{619, 619, 0, 368143, 76, 38}},
	{"small-uniform+delta", "tc", "neg", "noplan", counters{619, 619, 0, 2597, 76, 38}},
	{"small-uniform+delta", "tc", "neg", "plan", counters{619, 619, 0, 2597, 76, 38}},
	{"small-uniform+delta", "tc", "pair", "nocontours", counters{1091, 896, 195, 791112, 2346, 865}},
	{"small-uniform+delta", "tc", "pair", "noplan", counters{1091, 896, 195, 35146, 2346, 865}},
	{"small-uniform+delta", "tc", "pair", "plan", counters{1091, 896, 195, 35146, 2346, 865}},
	{"small-uniform+delta", "tc", "scan", "nocontours", counters{231, 231, 0, 0, 462, 231}},
	{"small-uniform+delta", "tc", "scan", "noplan", counters{231, 231, 0, 0, 462, 231}},
	{"small-uniform+delta", "tc", "scan", "plan", counters{231, 231, 0, 0, 462, 231}},
	{"small-uniform+delta", "threehop", "neg", "nocontours", counters{619, 619, 0, 1081173, 76, 38}},
	{"small-uniform+delta", "threehop", "neg", "noplan", counters{619, 619, 0, 1132, 76, 38}},
	{"small-uniform+delta", "threehop", "neg", "plan", counters{1367, 1367, 0, 0, 76, 38}},
	{"small-uniform+delta", "threehop", "pair", "nocontours", counters{1091, 896, 195, 2865822, 2346, 865}},
	{"small-uniform+delta", "threehop", "pair", "noplan", counters{1091, 896, 195, 214871, 2346, 865}},
	{"small-uniform+delta", "threehop", "pair", "plan", counters{2394, 2199, 195, 211214, 2346, 865}},
	{"small-uniform+delta", "threehop", "scan", "nocontours", counters{231, 231, 0, 0, 462, 231}},
	{"small-uniform+delta", "threehop", "scan", "noplan", counters{231, 231, 0, 0, 462, 231}},
	{"small-uniform+delta", "threehop", "scan", "plan", counters{231, 231, 0, 0, 462, 231}},
}

// counterModes are the engine options TestEvalCountersGolden runs
// every fixture under: the planner on and off, and the pairwise-probe
// ablation.
var counterModes = map[string]Options{
	"plan":       {},
	"noplan":     {NoPlan: true},
	"nocontours": {NoContours: true},
}

// overlayFixtures are evalFixtures' shapes and workloads at an eighth
// of the size (half the blocks, half the block size), each evaluated
// through a delta overlay of one fixed batch (overlayBatch). Every
// overlay probe costs a base probe per delta edge, and the pairwise
// ablation asks one per candidate pair, which the full-size graphs make
// too slow under the race detector.
func overlayFixtures() []evalFixture {
	return []evalFixture{
		{"small-uniform+delta", gen.Forest(rand.New(rand.NewSource(11)), 8, 80, 180, []string{"a", "b", "c"}), benchWorkload()},
		{"small-skewed+delta", gen.ZipfForest(rand.New(rand.NewSource(46)), 8, 80, 180, planTestLabels), skewedWorkload()},
	}
}

// overlayBatch is one fixed delta batch over g: two new vertices, each
// labelled like some base vertex, and edges among old and new vertices
// that join blocks the base index never connected.
func overlayBatch(g *graph.Graph) delta.Batch {
	r := rand.New(rand.NewSource(7))
	var b delta.Batch
	for i := 0; i < 2; i++ {
		b.Nodes = append(b.Nodes, delta.NodeAdd{Label: g.Label(graph.NodeID(r.Intn(g.N())))})
	}
	n := g.N() + len(b.Nodes)
	for i := 0; i < 6; i++ {
		b.Edges = append(b.Edges, delta.EdgeAdd{From: graph.NodeID(r.Intn(n)), To: graph.NodeID(r.Intn(n))})
	}
	return b
}

// TestEvalCountersGolden pins the counters of every BenchmarkEval
// combination — both graphs, both index backends, every counterModes
// entry, every workload query — and of the same combinations over the
// overlayFixtures.
func TestEvalCountersGolden(t *testing.T) {
	got := map[[4]string]counters{}
	run := func(name string, g *graph.Graph, h reach.ContourIndex, kind string, workload map[string]*core.Query) {
		for mode, opt := range counterModes {
			e := NewWithIndex(g, h, opt)
			for query, q := range workload {
				_, st := e.EvalStats(q)
				got[[4]string{name, kind, query, mode}] = counters{st.Input, st.PruneInput, st.EnumInput, st.Index, st.Intermediate, st.Results}
			}
		}
	}
	for _, kind := range []string{"threehop", "tc"} {
		for _, fx := range evalFixtures() {
			h, err := reach.Build(kind, fx.g)
			if err != nil {
				t.Fatal(err)
			}
			run(fx.name, fx.g, h, kind, fx.workload)
		}
		for _, fx := range overlayFixtures() {
			h, err := reach.Build(kind, fx.g)
			if err != nil {
				t.Fatal(err)
			}
			batches := []delta.Batch{overlayBatch(fx.g)}
			ext, err := delta.Extend(fx.g, batches)
			if err != nil {
				t.Fatal(err)
			}
			run(fx.name, ext, delta.NewOverlay(h, fx.g.N(), ext.N(), batches), kind, fx.workload)
		}
	}
	if len(got) != len(evalCountersGolden) {
		t.Errorf("%d combinations ran, the table has %d rows", len(got), len(evalCountersGolden))
	}
	for _, row := range evalCountersGolden {
		key := [4]string{row.graph, row.kind, row.query, row.mode}
		if c, ok := got[key]; !ok {
			t.Errorf("%v: not run", key)
		} else if c != row.want {
			t.Errorf("%v: counters %+v, want %+v", key, c, row.want)
		}
	}
}

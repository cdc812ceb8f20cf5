package gtea

import "testing"

// counters are the exact work counters of one evaluation: the paper's
// cost measures (Fig 10: Input, Index, Intermediate) and the result
// count.
type counters struct {
	input, pruneInput, enumInput, index, intermediate, results int64
}

// evalCountersGolden was recorded by running every BenchmarkEval
// fixture once. A row moves only when the work an evaluation does
// moves: a different kernel choice, a list scanned in another order, a
// lookup charged twice or not at all.
var evalCountersGolden = []struct {
	graph, kind, query, mode string
	want                     counters
}{
	{"skewed", "tc", "chain", "noplan", counters{2970, 2889, 81, 60152, 406, 103}},
	{"skewed", "tc", "chain", "plan", counters{3183, 3102, 81, 12793, 406, 103}},
	{"skewed", "tc", "mixed", "noplan", counters{2221, 2221, 0, 39037, 280, 140}},
	{"skewed", "tc", "mixed", "plan", counters{2221, 2221, 0, 39037, 280, 140}},
	{"skewed", "tc", "star", "noplan", counters{2639, 2639, 0, 142233, 172, 86}},
	{"skewed", "tc", "star", "plan", counters{5434, 5434, 0, 0, 172, 86}},
	{"skewed", "threehop", "chain", "noplan", counters{2970, 2889, 81, 13817, 406, 103}},
	{"skewed", "threehop", "chain", "plan", counters{3943, 3862, 81, 7528, 406, 103}},
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
	{"uniform", "threehop", "neg", "plan", counters{2566, 2566, 0, 4871, 290, 145}},
	{"uniform", "threehop", "pair", "noplan", counters{4172, 3434, 738, 4505761, 11030, 4333}},
	{"uniform", "threehop", "pair", "plan", counters{9281, 8543, 738, 4494280, 11030, 4333}},
	{"uniform", "threehop", "scan", "noplan", counters{880, 880, 0, 0, 1760, 880}},
	{"uniform", "threehop", "scan", "plan", counters{880, 880, 0, 0, 1760, 880}},
}

// TestEvalCountersGolden pins the counters of every BenchmarkEval
// combination: both graphs, both index backends, planner on and off,
// every workload query.
func TestEvalCountersGolden(t *testing.T) {
	got := map[[4]string]counters{}
	for _, fx := range evalFixtures() {
		for _, kind := range []string{"threehop", "tc"} {
			for _, mode := range []string{"plan", "noplan"} {
				e, err := NewWithOptions(fx.g, Options{Index: kind, NoPlan: mode == "noplan"})
				if err != nil {
					t.Fatal(err)
				}
				for name, q := range fx.workload {
					_, st := e.EvalStats(q)
					got[[4]string{fx.name, kind, name, mode}] = counters{st.Input, st.PruneInput, st.EnumInput, st.Index, st.Intermediate, st.Results}
				}
			}
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

package gtea

import (
	"fmt"
	"math/rand"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/logic"
)

// benchWorkload builds the benchmark queries over the {a,b,c} alphabet.
// "pair" is the canonical two-output miss-path workload the PR targets;
// "scan" bounds the floor and "neg" adds predicate logic.
func benchWorkload() map[string]*core.Query {
	pair := core.NewQuery()
	x := pair.AddRoot("x", core.Label("a"))
	pair.AddNode("y", core.Backbone, x, core.AD, core.Label("b"))
	pair.SetOutput(0)
	pair.SetOutput(1)

	scan := core.NewQuery()
	scan.AddRoot("x", core.Label("a"))
	scan.SetOutput(0)

	neg := core.NewQuery()
	nx := neg.AddRoot("x", core.Label("c"))
	ny := neg.AddNode("y", core.Predicate, nx, core.AD, core.Label("a"))
	neg.SetStruct(nx, logic.Not(logic.Var(ny)))
	neg.SetOutput(nx)

	return map[string]*core.Query{"scan": scan, "pair": pair, "neg": neg}
}

// benchGraph is the benchmark workload graph: a forest of independent
// random DAG blocks (the shard experiment's shape), so candidate sets
// are large but reachability — and with it the result set — stays
// bounded per block. That keeps a single evaluation fast and puts the
// pruning rounds, not result materialization, in the numerator.
func benchGraph() *graph.Graph {
	return gen.Forest(rand.New(rand.NewSource(11)), 16, 160, 360, []string{"a", "b", "c"})
}

// skewedWorkload anchors queries on rare labels hanging off hot ones,
// over planTestGraph — the shape where bitset contours pay most: the
// paper kernel probes every candidate of the huge hot sets, while the
// planner ANDs the hot root with each child's bitset contour. (Every
// threehop fixture with an AD edge reads bitset contours under the
// planner, "pair" too.)
func skewedWorkload() map[string]*core.Query {
	chain := core.NewQuery()
	cx := chain.AddRoot("x", core.Label("a"))
	cy := chain.AddNode("y", core.Backbone, cx, core.AD, core.Label("d"))
	chain.AddNode("z", core.Backbone, cy, core.AD, core.Label("g"))
	chain.SetOutput(cx)
	chain.SetOutput(cy)

	mixed := core.NewQuery()
	mx := mixed.AddRoot("x", core.Label("b"))
	mp := mixed.AddNode("p", core.Predicate, mx, core.AD, core.Label("a"))
	mq := mixed.AddNode("q", core.Predicate, mx, core.AD, core.Label("g"))
	mixed.SetStruct(mx, logic.And(logic.Var(mp), logic.Var(mq)))
	mixed.SetOutput(mx)

	return map[string]*core.Query{"star": starQuery(), "chain": chain, "mixed": mixed}
}

// evalFixture is one graph of BenchmarkEval with the queries run on it.
type evalFixture struct {
	name     string
	g        *graph.Graph
	workload map[string]*core.Query
}

// evalFixtures are BenchmarkEval's graphs and workloads, which
// TestEvalCountersGolden pins the counters of.
func evalFixtures() []evalFixture {
	return []evalFixture{
		{"uniform", benchGraph(), benchWorkload()},
		{"skewed", planTestGraph(), skewedWorkload()},
	}
}

// BenchmarkEval measures steady-state Eval latency and allocations per
// call on a shared engine — the server's cache-miss path. Run with
// -benchmem (ReportAllocs is already on) and compare allocs/op across
// PRs; the result cache PR's acceptance bar is a ≥30% allocs/op
// reduction on pair vs. its pre-PR baseline. star, chain and mixed run
// on the label-skewed forest, the rest on the uniform one.
func BenchmarkEval(b *testing.B) {
	for _, fx := range evalFixtures() {
		for _, kind := range []string{"threehop", "tc"} {
			for _, mode := range []string{"plan", "noplan"} {
				e, err := NewWithOptions(fx.g, Options{Index: kind, NoPlan: mode == "noplan"})
				if err != nil {
					b.Fatal(err)
				}
				for name, q := range fx.workload {
					b.Run(fmt.Sprintf("%s/%s/%s", kind, name, mode), func(b *testing.B) {
						e.Eval(q) // warm up (and pre-size pooled scratch)
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							e.Eval(q)
						}
					})
				}
			}
		}
	}
}

// BenchmarkEvalParallel drives the pair workload from GOMAXPROCS
// goroutines over one shared engine, the shape of concurrent serving
// traffic; allocation churn here is what the evalContext pool removes.
func BenchmarkEvalParallel(b *testing.B) {
	g := benchGraph()
	e, err := NewWithOptions(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	q := benchWorkload()["pair"]
	e.Eval(q)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			e.Eval(q)
		}
	})
}

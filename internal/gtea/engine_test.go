package gtea

import (
	"math/rand"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/logic"
	"gtpq/internal/reach"
)

// randGraph and randQuery delegate to the shared generator package so
// the internal/equiv driver and these oracle tests draw from the same
// workload distribution (identical code moved to internal/gen).
func randGraph(r *rand.Rand, n, m int, labels []string, dag bool) *graph.Graph {
	return gen.Graph(r, n, m, labels, dag)
}

func randQuery(r *rand.Rand, size int, labels []string, allowPC, allowLogic bool) *core.Query {
	return gen.Query(r, size, labels, allowPC, allowLogic)
}

func compare(t *testing.T, g *graph.Graph, q *core.Query, trial int) {
	t.Helper()
	if err := q.Validate(); err != nil {
		t.Fatalf("trial %d: invalid random query: %v", trial, err)
	}
	want := core.EvalNaive(g, reach.NewTC(g), q)
	got := New(g).Eval(q)
	if !want.Equal(got) {
		t.Fatalf("trial %d: mismatch\nquery:\n%s\nwant: %sgot:  %s", trial, q, want, got)
	}
}

func TestGTEAMatchesOracleConjunctiveAD(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	labels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 60; trial++ {
		g := randGraph(r, 5+r.Intn(25), 5+r.Intn(60), labels, true)
		q := randQuery(r, 2+r.Intn(6), labels, false, false)
		compare(t, g, q, trial)
	}
}

func TestGTEAMatchesOracleWithLogic(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	labels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 80; trial++ {
		g := randGraph(r, 5+r.Intn(25), 5+r.Intn(60), labels, true)
		q := randQuery(r, 2+r.Intn(7), labels, false, true)
		compare(t, g, q, trial)
	}
}

func TestGTEAMatchesOracleWithPC(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	labels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 80; trial++ {
		g := randGraph(r, 5+r.Intn(25), 5+r.Intn(60), labels, true)
		q := randQuery(r, 2+r.Intn(7), labels, true, true)
		compare(t, g, q, trial)
	}
}

func TestGTEAMatchesOracleOnCyclicGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(104))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 60; trial++ {
		g := randGraph(r, 4+r.Intn(20), 4+r.Intn(60), labels, false)
		q := randQuery(r, 2+r.Intn(6), labels, true, true)
		compare(t, g, q, trial)
	}
}

func TestGTEAAblationsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(105))
	labels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 40; trial++ {
		g := randGraph(r, 5+r.Intn(20), 5+r.Intn(50), labels, true)
		q := randQuery(r, 2+r.Intn(6), labels, true, true)
		want := core.EvalNaive(g, reach.NewTC(g), q)
		for _, opt := range []Options{{NoContours: true}, {NoShrink: true}, {NoContours: true, NoShrink: true}} {
			e := New(g)
			e.Opt = opt
			got := e.Eval(q)
			if !want.Equal(got) {
				t.Fatalf("trial %d opts %+v: mismatch\nquery:\n%s\nwant: %sgot:  %s",
					trial, opt, q, want, got)
			}
		}
	}
}

func TestGTEADeepChainInheritance(t *testing.T) {
	// A long path exercises the chain-local valuation inheritance: all
	// "a" nodes except the last reach the final "b".
	g := graph.New(0, 0)
	n := 50
	for i := 0; i < n; i++ {
		g.AddNode("a", nil)
	}
	b := g.AddNode("b", nil)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g.AddEdge(graph.NodeID(n-1), b)
	g.Freeze()

	q := core.NewQuery()
	r := q.AddRoot("a", core.Label("a"))
	p := q.AddNode("b", core.Predicate, r, core.AD, core.Label("b"))
	q.SetStruct(r, logic.Var(p))
	q.SetOutput(r)
	ans := New(g).Eval(q)
	if ans.Len() != n {
		t.Fatalf("got %d results, want %d", ans.Len(), n)
	}
}

func TestGTEANegationOnChain(t *testing.T) {
	// Negated predicate down a chain: only the tail node lacks a "b"
	// descendant.
	g := graph.New(0, 0)
	a1 := g.AddNode("a", nil)
	a2 := g.AddNode("a", nil)
	a3 := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a1, a2)
	g.AddEdge(a2, a3)
	g.AddEdge(a2, b)
	g.Freeze()

	q := core.NewQuery()
	r := q.AddRoot("a", core.Label("a"))
	p := q.AddNode("b", core.Predicate, r, core.AD, core.Label("b"))
	q.SetStruct(r, logic.Not(logic.Var(p)))
	q.SetOutput(r)
	ans := New(g).Eval(q)
	if ans.Len() != 1 || ans.Tuples[0][0] != a3 {
		t.Fatalf("answer = %s, want just a3", ans)
	}
	_ = a1
}

func TestGTEASingletonSeparator(t *testing.T) {
	// Root has one candidate; two output children with several candidates
	// each — the shrunk prime subtree splits into two components whose
	// results combine by Cartesian product.
	g := graph.New(0, 0)
	root := g.AddNode("r", nil)
	var bs, cs []graph.NodeID
	for i := 0; i < 3; i++ {
		b := g.AddNode("b", nil)
		g.AddEdge(root, b)
		bs = append(bs, b)
	}
	for i := 0; i < 2; i++ {
		c := g.AddNode("c", nil)
		g.AddEdge(root, c)
		cs = append(cs, c)
	}
	g.Freeze()

	q := core.NewQuery()
	r := q.AddRoot("r", core.Label("r"))
	b := q.AddNode("b", core.Backbone, r, core.AD, core.Label("b"))
	c := q.AddNode("c", core.Backbone, r, core.AD, core.Label("c"))
	q.SetOutput(b)
	q.SetOutput(c)
	ans := New(g).Eval(q)
	if ans.Len() != len(bs)*len(cs) {
		t.Fatalf("got %d results, want %d", ans.Len(), len(bs)*len(cs))
	}
}

func TestGTEAUpwardPruneBelowSingleton(t *testing.T) {
	// Regression for the Procedure 7 guard: the singleton root separates
	// the output component, but the output's candidates must still be
	// upward-pruned against the singleton.
	g := graph.New(0, 0)
	r1 := g.AddNode("r", nil)
	b1 := g.AddNode("b", nil)
	b2 := g.AddNode("b", nil) // not under r1
	x := g.AddNode("x", nil)
	g.AddEdge(r1, b1)
	g.AddEdge(x, b2)
	g.Freeze()

	q := core.NewQuery()
	r := q.AddRoot("r", core.Label("r"))
	b := q.AddNode("b", core.Backbone, r, core.AD, core.Label("b"))
	q.SetOutput(b)
	ans := New(g).Eval(q)
	if ans.Len() != 1 || ans.Tuples[0][0] != b1 {
		t.Fatalf("answer = %s, want just b1 (b2 is unreachable from r)", ans)
	}
	_ = b2
}

func TestGTEAStatsPopulated(t *testing.T) {
	r := rand.New(rand.NewSource(106))
	g := randGraph(r, 30, 60, []string{"a", "b", "c"}, true)
	q := randQuery(r, 4, []string{"a", "b", "c"}, false, false)
	e := New(g)
	_, s := e.EvalStats(q)
	if s.Input == 0 {
		t.Error("Input counter not populated")
	}
	if s.TotalTime == 0 {
		t.Error("TotalTime not populated")
	}
}

func TestGTEAEmptyGraph(t *testing.T) {
	g := graph.New(0, 0)
	g.Freeze()
	q := core.NewQuery()
	r := q.AddRoot("a", core.Label("a"))
	q.SetOutput(r)
	ans := New(g).Eval(q)
	if ans.Len() != 0 {
		t.Fatal("empty graph should yield empty answer")
	}
}

func TestGTEAGroupLikeCollect(t *testing.T) {
	// Non-output internal node with multiple candidates: duplicates from
	// different roots must collapse (Example 12's discussion).
	g := graph.New(0, 0)
	a1 := g.AddNode("a", nil)
	a2 := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a1, a2)
	g.AddEdge(a2, b)
	g.Freeze()

	q := core.NewQuery()
	r := q.AddRoot("a", core.Label("a"))
	bb := q.AddNode("b", core.Backbone, r, core.AD, core.Label("b"))
	q.SetOutput(bb)
	ans := New(g).Eval(q)
	// Both a1 and a2 reach b, but the answer projects on b only: one row.
	if ans.Len() != 1 || ans.Tuples[0][0] != b {
		t.Fatalf("answer = %s, want one row (b)", ans)
	}
	_ = a1
}

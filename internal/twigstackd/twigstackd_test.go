package twigstackd

import (
	"math/rand"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// dagGraph builds a small DAG with shared descendants (a graph, not a
// tree — TwigStackD's home turf).
func dagGraph() (*graph.Graph, []graph.NodeID) {
	g := graph.New(0, 0)
	a1 := g.AddNode("a", nil)
	a2 := g.AddNode("a", nil)
	b := g.AddNode("b", nil) // shared by both a's
	c := g.AddNode("c", nil)
	g.AddEdge(a1, b)
	g.AddEdge(a2, b)
	g.AddEdge(b, c)
	g.Freeze()
	return g, []graph.NodeID{a1, a2, b, c}
}

func TestSharedDescendant(t *testing.T) {
	g, ids := dagGraph()
	q := core.NewQuery()
	a := q.AddRoot("a", core.Label("a"))
	c := q.AddNode("c", core.Backbone, a, core.AD, core.Label("c"))
	q.SetOutput(a)
	q.SetOutput(c)
	ans := New(g).Eval(q)
	// Both a1 and a2 reach c through the shared b.
	if ans.Len() != 2 {
		t.Fatalf("answer = %s", ans)
	}
	_ = ids
}

func TestPreFilterMatchesOracleDownUp(t *testing.T) {
	// The pre-filter must keep exactly the nodes participating in
	// matches (conjunctive queries on DAGs).
	r := rand.New(rand.NewSource(55))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 25; trial++ {
		g := graph.New(0, 0)
		n := 8 + r.Intn(25)
		for i := 0; i < n; i++ {
			g.AddNode(labels[r.Intn(3)], nil)
		}
		for e := 0; e < n*2; e++ {
			u := r.Intn(n - 1)
			g.AddEdge(graph.NodeID(u), graph.NodeID(u+1+r.Intn(n-u-1)))
		}
		g.Freeze()
		q := core.NewQuery()
		a := q.AddRoot("a", core.Label("a"))
		b := q.AddNode("b", core.Backbone, a, core.AD, core.Label("b"))
		c := q.AddNode("c", core.Backbone, b, core.AD, core.Label("c"))
		for _, u := range []int{a, b, c} {
			q.SetOutput(u)
		}
		want := core.EvalNaive(g, reach.NewTC(g), q)
		mat := New(g).preFilter(q)
		// Every node appearing in a match must survive the filter, and
		// every surviving node must appear in some match.
		participants := map[int]map[graph.NodeID]bool{}
		for i, u := range want.Out {
			participants[u] = map[graph.NodeID]bool{}
			for _, tp := range want.Tuples {
				participants[u][tp[i]] = true
			}
		}
		for i, u := range want.Out {
			got := map[graph.NodeID]bool{}
			for _, v := range mat[u] {
				got[v] = true
			}
			for v := range participants[u] {
				if !got[v] {
					t.Fatalf("trial %d: match node %d missing from filtered mat(%d)", trial, v, u)
				}
			}
			for v := range got {
				if !participants[u][v] {
					t.Fatalf("trial %d: filtered mat(%d) keeps non-participant %d", trial, u, v)
				}
			}
			_ = i
		}
	}
}

func TestCyclicGraph(t *testing.T) {
	g := graph.New(0, 0)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	c := g.AddNode("c", nil)
	g.AddEdge(a, b)
	g.AddEdge(b, a) // cycle
	g.AddEdge(b, c)
	g.Freeze()
	q := core.NewQuery()
	qa := q.AddRoot("a", core.Label("a"))
	qc := q.AddNode("c", core.Backbone, qa, core.AD, core.Label("c"))
	q.SetOutput(qc)
	want := core.EvalNaive(g, reach.NewTC(g), q)
	got := New(g).Eval(q)
	if !want.Equal(got) {
		t.Fatalf("cyclic mismatch: want %sgot %s", want, got)
	}
}

func TestStatsFilterTime(t *testing.T) {
	g, _ := dagGraph()
	q := core.NewQuery()
	a := q.AddRoot("a", core.Label("a"))
	c := q.AddNode("c", core.Backbone, a, core.AD, core.Label("c"))
	q.SetOutput(c)
	e := New(g)
	e.Eval(q)
	st := e.Stats()
	if st.Input == 0 {
		t.Error("Input not counted")
	}
}

func TestPCEdgesOnDAG(t *testing.T) {
	g, ids := dagGraph()
	q := core.NewQuery()
	a := q.AddRoot("a", core.Label("a"))
	b := q.AddNode("b", core.Backbone, a, core.PC, core.Label("b"))
	c := q.AddNode("c", core.Backbone, b, core.PC, core.Label("c"))
	q.SetOutput(a)
	q.SetOutput(c)
	ans := New(g).Eval(q)
	if ans.Len() != 2 { // both a's adjacent to b; b adjacent to c
		t.Fatalf("answer = %s", ans)
	}
	_ = ids
}

func TestEmptyWhenLabelMissing(t *testing.T) {
	g, _ := dagGraph()
	q := core.NewQuery()
	z := q.AddRoot("z", core.Label("z"))
	q.SetOutput(z)
	if ans := New(g).Eval(q); ans.Len() != 0 {
		t.Fatalf("answer = %s, want empty", ans)
	}
}

// TestSSPIMatchesTC checks SSPI against the transitive closure on
// random DAGs and on random digraphs with cycles and self-loops.
func TestSSPIMatchesTC(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var st reach.Stats
	for trial := 0; trial < 30; trial++ {
		g := gen.Graph(r, 2+r.Intn(40), 2+r.Intn(120), []string{"n"}, trial%2 == 0)
		tc := reach.NewTC(g)
		x := NewSSPI(g)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				want := tc.ReachesSt(graph.NodeID(u), graph.NodeID(v), &st)
				got := x.Reaches(graph.NodeID(u), graph.NodeID(v))
				if got != want {
					t.Fatalf("trial %d: SSPI.Reaches(%d,%d)=%v want %v", trial, u, v, got, want)
				}
			}
		}
	}
}

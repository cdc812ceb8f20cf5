package sub

import (
	"testing"

	"gtpq/internal/catalog"
	"gtpq/internal/core"
	"gtpq/internal/delta"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
)

// clusterGraph builds label-disjoint chains with two a-roots:
//
//	a0 -> b1 -> b2        (cluster one)
//	c3 -> d4              (cluster two)
//	a5 -> b6              (cluster three)
func clusterGraph(t *testing.T, extra ...delta.Batch) (*graph.Graph, *gtea.Engine) {
	t.Helper()
	g := graph.New(7, 4)
	g.AddNode("a", nil)
	g.AddNode("b", nil)
	g.AddNode("b", nil)
	g.AddNode("c", nil)
	g.AddNode("d", nil)
	g.AddNode("a", nil)
	g.AddNode("b", nil)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddEdge(5, 6)
	g.Freeze()
	if len(extra) > 0 {
		ext, err := delta.Extend(g, extra)
		if err != nil {
			t.Fatal(err)
		}
		g = ext
	}
	return g, gtea.New(g)
}

func adQuery(rootLabel, childLabel string) *core.Query {
	q := core.NewQuery()
	root := q.AddRoot("x", core.Label(rootLabel))
	q.AddNode("y", core.Backbone, root, core.AD, core.Label(childLabel))
	q.SetOutput(root)
	return q
}

func decideFor(t *testing.T, q *core.Query, b delta.Batch, budget int) decision {
	t.Helper()
	_, eng := clusterGraph(t, b)
	s := &Subscription{q: q, conj: q.IsConjunctive()}
	ev := catalog.ApplyEvent{
		Gen:    2,
		Batch:  b,
		Engine: eng,
		DS:     &catalog.Dataset{Engine: eng},
	}
	return decide(s, ev, budget)
}

func TestDecideSkipsDisjointCluster(t *testing.T) {
	// An edge inside the c/d cluster cannot touch the a→b query.
	b := delta.Batch{Edges: []delta.EdgeAdd{{From: 3, To: 4}}}
	if d := decideFor(t, adQuery("a", "b"), b, 4096); d.mode != modeSkip {
		t.Fatalf("disjoint edge decided %v, want skip", d.mode)
	}
	// A new node with an untouched label skips too.
	b = delta.Batch{Nodes: []delta.NodeAdd{{Label: "z"}}}
	if d := decideFor(t, adQuery("a", "b"), b, 4096); d.mode != modeSkip {
		t.Fatalf("foreign-label node decided %v, want skip", d.mode)
	}
}

func TestDecideRestrictedOnTouchedCluster(t *testing.T) {
	// A new b-vertex under b2 extends the a→b relation; the seed must
	// contain the affected a-root (vertex 0) but not the untouched one
	// in cluster three (vertex 5).
	b := delta.Batch{
		Nodes: []delta.NodeAdd{{Label: "b"}},
		Edges: []delta.EdgeAdd{{From: 2, To: 7}},
	}
	d := decideFor(t, adQuery("a", "b"), b, 4096)
	if d.mode != modeRestricted {
		t.Fatalf("touched cluster decided %v, want restricted", d.mode)
	}
	seeded := false
	for _, v := range d.seed {
		if v == 5 {
			t.Fatalf("seed %v includes the untouched root 5", d.seed)
		}
		if v == 0 {
			seeded = true
		}
	}
	if !seeded {
		t.Fatalf("seed %v misses the affected root 0", d.seed)
	}
}

func TestDecideBudgetExhaustionFallsBack(t *testing.T) {
	// Budget 1 cannot even finish the reverse BFS: full re-evaluation.
	b := delta.Batch{
		Nodes: []delta.NodeAdd{{Label: "b"}},
		Edges: []delta.EdgeAdd{{From: 2, To: 7}},
	}
	if d := decideFor(t, adQuery("a", "b"), b, 1); d.mode != modeFull {
		t.Fatalf("budget exhaustion decided %v, want full", d.mode)
	}
}

func TestDecidePCEndpoints(t *testing.T) {
	q := core.NewQuery()
	root := q.AddRoot("x", core.Label("c"))
	q.AddNode("y", core.Backbone, root, core.PC, core.Label("d"))
	q.SetOutput(root)
	// New edge c3 -> d4 duplicates… rather, new PC-satisfying edge from
	// an existing c to the existing d must not be skipped.
	b := delta.Batch{Edges: []delta.EdgeAdd{{From: 3, To: 4}}}
	if d := decideFor(t, q, b, 4096); d.mode == modeSkip {
		t.Fatal("PC-matching edge was skipped")
	}
	// The same edge against an a→b PC query skips.
	q2 := core.NewQuery()
	r2 := q2.AddRoot("x", core.Label("a"))
	q2.AddNode("y", core.Backbone, r2, core.PC, core.Label("b"))
	q2.SetOutput(r2)
	if d := decideFor(t, q2, b, 4096); d.mode != modeSkip {
		t.Fatalf("PC-disjoint edge decided %v, want skip", d.mode)
	}
}

func TestDiffAndMerge(t *testing.T) {
	mk := func(rows ...[]graph.NodeID) *core.Answer {
		return &core.Answer{Out: []int{0}, Tuples: rows}
	}
	a := mk([]graph.NodeID{1}, []graph.NodeID{3}, []graph.NodeID{5})
	b := mk([]graph.NodeID{3})
	d := diffTuples(a, b)
	if len(d) != 2 || d[0][0] != 1 || d[1][0] != 5 {
		t.Fatalf("diff = %v", d)
	}
	if d := diffTuples(b, a); len(d) != 0 {
		t.Fatalf("reverse diff = %v, want empty", d)
	}
	m := mergeAdded(b, d)
	if len(m.Tuples) != 3 || m.Tuples[0][0] != 1 || m.Tuples[1][0] != 3 || m.Tuples[2][0] != 5 {
		t.Fatalf("merge = %v", m.Tuples)
	}
	if got := mergeAdded(a, nil); got != a {
		t.Fatal("empty merge should return prev unchanged")
	}
	if len(b.Tuples) != 1 {
		t.Fatal("merge mutated its input")
	}
}

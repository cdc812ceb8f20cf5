package card

import (
	"reflect"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/graph"
)

func testGraph() *graph.Graph {
	g := graph.New(5, 3)
	g.AddNode("a", nil)
	g.AddNode("a", nil)
	g.AddNode("b", nil)
	g.AddNode("b", nil)
	g.AddNode("c", nil)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 4)
	g.Freeze()
	return g
}

func TestFromGraphAndEstimate(t *testing.T) {
	g := testGraph()
	s := FromGraph(g, 7)
	if s.Nodes != 5 || s.Edges != 3 || s.Generation != 7 {
		t.Fatalf("summary %+v", s)
	}
	if want := map[string]int{"a": 2, "b": 2, "c": 1}; !reflect.DeepEqual(s.Labels, want) {
		t.Fatalf("labels %v, want %v", s.Labels, want)
	}

	// label-only nodes price at the label count, anything else at N.
	q := core.NewQuery()
	x := q.AddRoot("x", core.Label("a"))
	q.AddNode("y", core.Backbone, x, core.AD, core.Label("c"))
	q.SetOutput(x)
	if got := s.EstimateQuery(q); got != 2+1 {
		t.Fatalf("estimate = %d, want 3", got)
	}
	attr := q.AddNode("z", core.Predicate, x, core.AD, core.Label("b"))
	q.Nodes[attr].Attr = append(q.Nodes[attr].Attr, core.Atom{Attr: "age", Op: core.GE, Val: graph.NumV(3)})
	if got := s.EstimateQuery(q); got != 2+1+5 {
		t.Fatalf("estimate with attr node = %d, want 8", got)
	}
	// Unknown labels price at zero — the set is provably empty.
	q2 := core.NewQuery()
	q2.AddRoot("x", core.Label("zzz"))
	q2.SetOutput(0)
	if got := s.EstimateQuery(q2); got != 0 {
		t.Fatalf("unknown label estimate = %d, want 0", got)
	}
}

type mapCounter map[string]int

func (m mapCounter) LabelCount(l string) int { return m[l] }

func TestFromCounts(t *testing.T) {
	s := FromCounts([]string{"a", "b"}, mapCounter{"a": 4, "b": 1}, 10, 20, 3)
	if s.Nodes != 10 || s.Edges != 20 || s.Generation != 3 {
		t.Fatalf("summary %+v", s)
	}
	if want := map[string]int{"a": 4, "b": 1}; !reflect.DeepEqual(s.Labels, want) {
		t.Fatalf("labels %v, want %v", s.Labels, want)
	}
}

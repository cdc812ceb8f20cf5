package card

import (
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/graph"
)

func TestEstimateQuery(t *testing.T) {
	counts := map[string]int{"a": 2, "b": 2, "c": 1}
	s := &Stats{Nodes: 5, LabelCount: func(l string) int { return counts[l] }}

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

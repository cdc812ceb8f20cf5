package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gtpq/internal/graph"
	"gtpq/internal/logic"
)

// paperAttr encodes the paper's label convention (Example 3): a query
// label Yj matches a data label xi iff the letters agree and j <= i.
func paperAttr(letter string, num float64) AttrPred {
	return AttrPred{
		{Attr: "letter", Op: EQ, Val: graph.StrV(letter)},
		{Attr: "num", Op: GE, Val: graph.NumV(num)},
	}
}

// paperNode adds a data node labeled like "b1" with letter/num attrs.
func paperNode(g *graph.Graph, letter string, num float64) graph.NodeID {
	return g.AddNode(letter, graph.Attrs{
		"letter": graph.StrV(letter),
		"num":    graph.NumV(num),
	})
}

func TestQueryBuilderAndValidate(t *testing.T) {
	q := NewQuery()
	r := q.AddRoot("a", Label("a"))
	b := q.AddNode("b", Backbone, r, AD, Label("b"))
	p := q.AddNode("p", Predicate, b, PC, Label("p"))
	q.SetStruct(b, logic.Var(p))
	q.SetOutput(b)
	if err := q.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	if q.Size() != 3 {
		t.Errorf("Size = %d", q.Size())
	}
	if got := q.Outputs(); len(got) != 1 || got[0] != b {
		t.Errorf("Outputs = %v", got)
	}
}

func TestValidateRejectsBackboneUnderPredicate(t *testing.T) {
	q := NewQuery()
	r := q.AddRoot("a", nil)
	p := q.AddNode("p", Predicate, r, AD, nil)
	q.AddNode("b", Backbone, p, AD, nil)
	if err := q.Validate(); err == nil {
		t.Error("backbone under predicate should be rejected")
	}
}

func TestValidateRejectsOutputPredicate(t *testing.T) {
	q := NewQuery()
	r := q.AddRoot("a", nil)
	p := q.AddNode("p", Predicate, r, AD, nil)
	q.Nodes[p].Output = true
	if err := q.Validate(); err == nil {
		t.Error("predicate output node should be rejected")
	}
}

func TestValidateRejectsForeignStructVars(t *testing.T) {
	q := NewQuery()
	r := q.AddRoot("a", nil)
	b := q.AddNode("b", Backbone, r, AD, nil)
	q.SetStruct(r, logic.Var(b)) // b is backbone, not a predicate child
	if err := q.Validate(); err == nil {
		t.Error("fs over a backbone child should be rejected")
	}
}

func TestFext(t *testing.T) {
	q := NewQuery()
	r := q.AddRoot("a", nil)
	b := q.AddNode("b", Backbone, r, AD, nil)
	p1 := q.AddNode("p1", Predicate, r, AD, nil)
	p2 := q.AddNode("p2", Predicate, r, AD, nil)
	q.SetStruct(r, logic.Or(logic.Var(p1), logic.Var(p2)))
	f := q.Fext(r)
	// fext = p_b & (p_p1 | p_p2)
	want := logic.And(logic.Var(b), logic.Or(logic.Var(p1), logic.Var(p2)))
	if !logic.Equivalent(f, want) {
		t.Errorf("Fext = %s, want %s", f, want)
	}
}

func TestOrdersAndLCA(t *testing.T) {
	q := NewQuery()
	r := q.AddRoot("r", nil)
	a := q.AddNode("a", Backbone, r, AD, nil)
	b := q.AddNode("b", Backbone, r, AD, nil)
	c := q.AddNode("c", Predicate, a, AD, nil)
	post := q.PostOrder()
	if post[len(post)-1] != r {
		t.Error("root must be last in postorder")
	}
	pre := q.PreOrder()
	if pre[0] != r {
		t.Error("root must be first in preorder")
	}
	if q.LCA(c, b) != r {
		t.Errorf("LCA(c,b) = %d, want root", q.LCA(c, b))
	}
	if q.LCA(c, a) != a {
		t.Errorf("LCA(c,a) = %d, want a", q.LCA(c, a))
	}
	if !q.IsAncestorOf(r, c) || q.IsAncestorOf(c, r) || q.IsAncestorOf(a, a) {
		t.Error("IsAncestorOf wrong")
	}
	if d := q.Descendants(a); len(d) != 1 || d[0] != c {
		t.Errorf("Descendants(a) = %v", d)
	}
	// On random trees PostOrder names every node once, each after all of
	// its children: the one invariant downward pruning needs, as pruning
	// a node reads its children's final candidate sets.
	rnd := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		q := NewQuery()
		q.AddRoot("n0", nil)
		for i, n := 1, 2+rnd.Intn(6); i < n; i++ {
			q.AddNode(fmt.Sprintf("n%d", i), Backbone, rnd.Intn(i), AD, nil)
		}
		order := q.PostOrder()
		pos := make(map[int]int, len(order))
		for i, u := range order {
			if _, dup := pos[u]; dup {
				t.Fatalf("trial %d: node %d appears twice in %v", trial, u, order)
			}
			pos[u] = i
		}
		if len(pos) != len(q.Nodes) {
			t.Fatalf("trial %d: post-order %v does not cover %d nodes", trial, order, len(q.Nodes))
		}
		for _, n := range q.Nodes {
			for _, c := range n.Children {
				if pos[c] > pos[n.ID] {
					t.Fatalf("trial %d: child %d after parent %d in %v", trial, c, n.ID, order)
				}
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	q := NewQuery()
	r := q.AddRoot("r", Label("x"))
	q.AddNode("a", Backbone, r, AD, nil)
	cp := q.Clone()
	cp.Nodes[0].Name = "changed"
	cp.Nodes[0].Children = append(cp.Nodes[0].Children, 99)
	if q.Nodes[0].Name != "r" || len(q.Nodes[0].Children) != 1 {
		t.Error("Clone is shallow")
	}
}

func TestQueryClassification(t *testing.T) {
	q := NewQuery()
	r := q.AddRoot("r", nil)
	p1 := q.AddNode("p1", Predicate, r, AD, nil)
	p2 := q.AddNode("p2", Predicate, r, AD, nil)

	q.SetStruct(r, logic.And(logic.Var(p1), logic.Var(p2)))
	if !q.IsConjunctive() || !q.IsUnionConjunctive() {
		t.Error("conjunctive query misclassified")
	}
	q.SetStruct(r, logic.Or(logic.Var(p1), logic.Var(p2)))
	if q.IsConjunctive() || !q.IsUnionConjunctive() {
		t.Error("union-conjunctive query misclassified")
	}
	q.SetStruct(r, logic.Not(logic.Var(p1)))
	if q.IsConjunctive() || q.IsUnionConjunctive() {
		t.Error("negated query misclassified")
	}
}

func TestAttrPredMatches(t *testing.T) {
	g := graph.New(0, 0)
	v := paperNode(g, "b", 2)
	w := paperNode(g, "b", 1)
	x := paperNode(g, "c", 5)
	g.Freeze()
	p := paperAttr("b", 2)
	if !p.Matches(g, v) {
		t.Error("b2 should match B2")
	}
	if p.Matches(g, w) {
		t.Error("b1 should not match B2")
	}
	if p.Matches(g, x) {
		t.Error("c5 should not match B2")
	}
	if !paperAttr("b", 1).Matches(g, v) {
		t.Error("b2 should match B1")
	}
}

func TestAttrPredMissingAttr(t *testing.T) {
	g := graph.New(0, 0)
	v := g.AddNode("plain", nil)
	g.Freeze()
	p := AttrPred{{Attr: "year", Op: GE, Val: graph.NumV(2000)}}
	if p.Matches(g, v) {
		t.Error("node without the attribute must not match")
	}
}

func TestLabelOnlyFastPath(t *testing.T) {
	if l, ok := Label("person").LabelOnly(); !ok || l != "person" {
		t.Error("LabelOnly should detect plain label predicates")
	}
	if _, ok := paperAttr("b", 1).LabelOnly(); ok {
		t.Error("two-atom predicate is not label-only")
	}
}

func TestAttrSatisfiable(t *testing.T) {
	cases := []struct {
		p    AttrPred
		want bool
	}{
		{nil, true},
		{Label("x"), true},
		{AttrPred{{Attr: "a", Op: EQ, Val: graph.NumV(1)}, {Attr: "a", Op: EQ, Val: graph.NumV(2)}}, false},
		{AttrPred{{Attr: "a", Op: EQ, Val: graph.NumV(1)}, {Attr: "a", Op: NE, Val: graph.NumV(1)}}, false},
		{AttrPred{{Attr: "a", Op: GE, Val: graph.NumV(5)}, {Attr: "a", Op: LT, Val: graph.NumV(5)}}, false},
		{AttrPred{{Attr: "a", Op: GE, Val: graph.NumV(5)}, {Attr: "a", Op: LE, Val: graph.NumV(5)}}, true},
		{AttrPred{{Attr: "a", Op: GE, Val: graph.NumV(5)}, {Attr: "a", Op: LE, Val: graph.NumV(5)}, {Attr: "a", Op: NE, Val: graph.NumV(5)}}, false},
		{AttrPred{{Attr: "a", Op: GT, Val: graph.NumV(1)}, {Attr: "a", Op: LT, Val: graph.NumV(2)}}, true},
		{AttrPred{{Attr: "a", Op: EQ, Val: graph.NumV(3)}, {Attr: "b", Op: EQ, Val: graph.NumV(4)}}, true},
		{AttrPred{{Attr: "a", Op: EQ, Val: graph.NumV(7)}, {Attr: "a", Op: GE, Val: graph.NumV(3)}}, true},
		{AttrPred{{Attr: "a", Op: EQ, Val: graph.NumV(2)}, {Attr: "a", Op: GT, Val: graph.NumV(2)}}, false},
	}
	for i, c := range cases {
		if got := c.p.Satisfiable(); got != c.want {
			t.Errorf("case %d (%s): Satisfiable = %v, want %v", i, c.p, got, c.want)
		}
	}
}

func TestAttrImpliedBy(t *testing.T) {
	b1, b2 := paperAttr("b", 1), paperAttr("b", 2)
	if !b1.ImpliedBy(b2) {
		t.Error("B2 should imply B1")
	}
	if b2.ImpliedBy(b1) {
		t.Error("B1 should not imply B2")
	}
	c1 := paperAttr("c", 1)
	if b1.ImpliedBy(c1) {
		t.Error("C1 should not imply B1")
	}
	le5 := AttrPred{{Attr: "y", Op: LE, Val: graph.NumV(5)}}
	le3 := AttrPred{{Attr: "y", Op: LE, Val: graph.NumV(3)}}
	if !le5.ImpliedBy(le3) || le3.ImpliedBy(le5) {
		t.Error("LE implication wrong")
	}
}

func TestAnswerCanonicalize(t *testing.T) {
	a := NewAnswer([]int{2, 1})
	if a.Out[0] != 1 || a.Out[1] != 2 {
		t.Error("Out should be sorted")
	}
	a.Add([]graph.NodeID{3, 4})
	a.Add([]graph.NodeID{1, 2})
	a.Add([]graph.NodeID{3, 4})
	a.Canonicalize()
	if a.Len() != 2 {
		t.Errorf("Len = %d after dedup, want 2", a.Len())
	}
	if a.Tuples[0][0] != 1 {
		t.Error("tuples should be sorted")
	}
	b := NewAnswer([]int{1, 2})
	b.Add([]graph.NodeID{1, 2})
	b.Add([]graph.NodeID{3, 4})
	b.Canonicalize()
	if !a.Equal(b) {
		t.Error("equal answers reported unequal")
	}
}

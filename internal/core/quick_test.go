package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gtpq/internal/graph"
	"gtpq/internal/logic"
	"gtpq/internal/reach"
)

// Property-based invariants for the query model and the §3 analyses.

func TestQuickCanonicalizeIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(501))
	cfg := &quick.Config{MaxCount: 100, Rand: r}
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := NewAnswer([]int{0, 1})
		for i := 0; i < rr.Intn(20); i++ {
			a.Add([]graph.NodeID{graph.NodeID(rr.Intn(5)), graph.NodeID(rr.Intn(5))})
		}
		a.Canonicalize()
		n := a.Len()
		a.Canonicalize()
		if a.Len() != n {
			return false
		}
		// Sorted and duplicate-free.
		for i := 1; i < len(a.Tuples); i++ {
			if !tupleLess(a.Tuples[i-1], a.Tuples[i]) {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickAttrSatisfiableSoundness(t *testing.T) {
	// If Satisfiable reports false, no generated node may match; if a
	// node matches, Satisfiable must report true.
	r := rand.New(rand.NewSource(502))
	cfg := &quick.Config{MaxCount: 200, Rand: r}
	ops := []Op{EQ, NE, LT, LE, GT, GE}
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		var p AttrPred
		for i := 0; i < 1+rr.Intn(4); i++ {
			p = append(p, Atom{
				Attr: "x",
				Op:   ops[rr.Intn(len(ops))],
				Val:  graph.NumV(float64(rr.Intn(5))),
			})
		}
		sat := p.Satisfiable()
		g := graph.New(0, 0)
		matched := false
		for x := -1.5; x <= 5.5; x += 0.5 {
			v := g.AddNode("n", graph.Attrs{"x": graph.NumV(x)})
			if p.Matches(g, v) {
				matched = true
			}
		}
		if matched && !sat {
			return false // found a witness but declared unsatisfiable
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickContainmentSoundOnRandomPairs(t *testing.T) {
	// Whenever Contained(q1,q2) holds, evaluation must agree on random
	// graphs: Q1(G) ⊆ Q2(G).
	r := rand.New(rand.NewSource(503))
	labels := []string{"a", "b", "c"}
	checked := 0
	for trial := 0; trial < 200 && checked < 25; trial++ {
		q1 := randSmallQuery(r, labels)
		q2 := randSmallQuery(r, labels)
		if len(q1.Outputs()) != len(q2.Outputs()) {
			continue
		}
		if !Contained(q1, q2) {
			continue
		}
		checked++
		for i := 0; i < 5; i++ {
			g := randSmallGraph(r, labels)
			tc := reach.NewTC(g)
			a1 := EvalNaive(g, tc, q1)
			a2 := EvalNaive(g, tc, q2)
			in2 := map[string]bool{}
			for _, t2 := range a2.Tuples {
				in2[tupleStr(t2)] = true
			}
			for _, t1 := range a1.Tuples {
				if !in2[tupleStr(t1)] {
					t.Fatalf("containment unsound:\nQ1:\n%s\nQ2:\n%s\ntuple %v",
						q1, q2, t1)
				}
			}
		}
	}
	if checked == 0 {
		t.Skip("no contained pairs sampled")
	}
}

func tupleStr(t []graph.NodeID) string {
	b := make([]byte, 0, len(t)*4)
	for _, v := range t {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

func randSmallQuery(r *rand.Rand, labels []string) *Query {
	q := NewQuery()
	root := q.AddRoot("r", Label(labels[r.Intn(len(labels))]))
	n := 1 + r.Intn(3)
	backbones := []int{root}
	for i := 0; i < n; i++ {
		kind := Backbone
		if r.Intn(2) == 0 {
			kind = Predicate
		}
		var parent int
		if kind == Backbone {
			parent = backbones[r.Intn(len(backbones))]
		} else {
			parent = r.Intn(q.Size())
		}
		id := q.AddNode("n", kind, parent, AD, Label(labels[r.Intn(len(labels))]))
		if kind == Backbone {
			backbones = append(backbones, id)
		}
	}
	for _, nd := range q.Nodes {
		var preds []*logic.Formula
		for _, c := range nd.Children {
			if q.Nodes[c].Kind == Predicate {
				preds = append(preds, logic.Var(c))
			}
		}
		if len(preds) > 0 {
			q.SetStruct(nd.ID, logic.And(preds...))
		}
	}
	q.SetOutput(root)
	return q
}

func randSmallGraph(r *rand.Rand, labels []string) *graph.Graph {
	g := graph.New(0, 0)
	n := 5 + r.Intn(12)
	for i := 0; i < n; i++ {
		g.AddNode(labels[r.Intn(len(labels))], nil)
	}
	for e := 0; e < n*2; e++ {
		u := r.Intn(n - 1)
		g.AddEdge(graph.NodeID(u), graph.NodeID(u+1+r.Intn(n-u-1)))
	}
	g.Freeze()
	return g
}

func TestQuickMinimizePreservesSemantics(t *testing.T) {
	// Minimize must preserve evaluation on random conjunctive queries.
	r := rand.New(rand.NewSource(504))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 25; trial++ {
		q := randSmallQuery(r, labels)
		m := Minimize(q)
		if m.Size() > q.Size() {
			t.Fatalf("Minimize grew the query: %d -> %d", q.Size(), m.Size())
		}
		for i := 0; i < 4; i++ {
			g := randSmallGraph(r, labels)
			tc := reach.NewTC(g)
			if !EvalNaive(g, tc, q).SameResults(EvalNaive(g, tc, m)) {
				t.Fatalf("trial %d: minimization changed semantics\noriginal:\n%s\nminimized:\n%s",
					trial, q, m)
			}
		}
	}
}

func TestQuickSatisfiableMatchesWitnessSearch(t *testing.T) {
	// For conjunctive random queries, Satisfiable must be true (they
	// always admit a witness graph shaped like the pattern).
	r := rand.New(rand.NewSource(505))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 40; trial++ {
		q := randSmallQuery(r, labels)
		if !Satisfiable(q) {
			t.Fatalf("conjunctive query reported unsatisfiable:\n%s", q)
		}
	}
}

func TestMinimizeRelocatesOutputToTwin(t *testing.T) {
	// Two isomorphic backbone branches under the root; the subsumed copy
	// carries the output marker, which must move to the surviving twin
	// (Algorithm 1 lines 12–14) and leave a valid, equivalent query.
	q := NewQuery()
	r := q.AddRoot("r", Label("a"))
	b1 := q.AddNode("b1", Backbone, r, AD, Label("b"))
	q.AddNode("c1", Predicate, b1, AD, Label("c"))
	b2 := q.AddNode("b2", Backbone, r, AD, Label("b"))
	q.AddNode("c2", Predicate, b2, AD, Label("c"))
	q.SetStruct(b1, logic.Var(2))
	q.SetStruct(b2, logic.Var(4))
	q.SetOutput(b1)
	m := Minimize(q)
	if err := m.Validate(); err != nil {
		t.Fatalf("minimized query invalid: %v\n%s", err, m)
	}
	if m.Size() >= q.Size() {
		t.Fatalf("duplicate branch not removed: %d -> %d\n%s", q.Size(), m.Size(), m)
	}
	if len(m.Outputs()) != 1 {
		t.Fatalf("output marker lost: %v", m.Outputs())
	}
	// Semantics preserved on random graphs.
	r2 := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		g := randSmallGraph(r2, []string{"a", "b", "c"})
		tc := reach.NewTC(g)
		if !EvalNaive(g, tc, q).SameResults(EvalNaive(g, tc, m)) {
			t.Fatalf("relocation changed semantics:\n%s\nvs\n%s", q, m)
		}
	}
}

func TestMinimizeKeepsOutputWithoutBackboneTwin(t *testing.T) {
	// The subsumed branch holds the output but its twin is a predicate
	// node: relocation is impossible, so the branch must survive and
	// the query stay valid.
	q := NewQuery()
	r := q.AddRoot("r", Label("a"))
	b1 := q.AddNode("b1", Backbone, r, AD, Label("b"))
	p1 := q.AddNode("p1", Predicate, r, AD, Label("b"))
	q.SetStruct(r, logic.Var(p1))
	q.SetOutput(b1)
	m := Minimize(q)
	if err := m.Validate(); err != nil {
		t.Fatalf("minimized query invalid: %v\n%s", err, m)
	}
	if len(m.Outputs()) != 1 {
		t.Fatalf("output lost: %v", m.Outputs())
	}
	rr := rand.New(rand.NewSource(8))
	for i := 0; i < 10; i++ {
		g := randSmallGraph(rr, []string{"a", "b"})
		tc := reach.NewTC(g)
		if !EvalNaive(g, tc, q).SameResults(EvalNaive(g, tc, m)) {
			t.Fatalf("minimization changed semantics:\n%s\nvs\n%s", q, m)
		}
	}
}

func TestMinimizeRelocatesOutputsOnlyToFreeSameEdgeTwins(t *testing.T) {
	// An output marker may move only to a twin under the same edge type
	// that is not an output already and takes no other marker: anything
	// else narrows a column or merges two columns into one.
	for _, tc := range []struct {
		name  string
		query func() *Query
		graph func(g *graph.Graph)
		rows  int
	}{{
		// The AD output ao is subsumed by its PC twin a; on c→a, c→b→a
		// the second a is a descendant of c but not a child.
		name: "pc-twin",
		query: func() *Query {
			q := NewQuery()
			c := q.AddRoot("c", Label("c"))
			q.AddNode("a", Backbone, c, PC, Label("a"))
			q.SetOutput(c)
			q.SetOutput(q.AddNode("ao", Backbone, c, AD, Label("a")))
			return q
		},
		graph: func(g *graph.Graph) {
			c, a1 := g.AddNode("c", nil), g.AddNode("a", nil)
			b, a2 := g.AddNode("b", nil), g.AddNode("a", nil)
			g.AddEdge(c, a1)
			g.AddEdge(c, b)
			g.AddEdge(b, a2)
		},
		rows: 2,
	}, {
		// x1 (two c outputs) is subsumed by x2 (one c); both markers
		// would move to x2's one c.
		name: "shared-twin",
		query: func() *Query {
			q := NewQuery()
			r := q.AddRoot("r", Label("a"))
			x2 := q.AddNode("x2", Backbone, r, AD, Label("b"))
			q.AddNode("z", Backbone, x2, AD, Label("c"))
			x1 := q.AddNode("x1", Backbone, r, AD, Label("b"))
			q.SetOutput(q.AddNode("y1", Backbone, x1, AD, Label("c")))
			q.SetOutput(q.AddNode("y2", Backbone, x1, AD, Label("c")))
			return q
		},
		graph: func(g *graph.Graph) {
			a, b := g.AddNode("a", nil), g.AddNode("b", nil)
			c1, c2 := g.AddNode("c", nil), g.AddNode("c", nil)
			g.AddEdge(a, b)
			g.AddEdge(b, c1)
			g.AddEdge(b, c2)
		},
		rows: 4,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.query()
			m := Minimize(q)
			if err := m.Validate(); err != nil {
				t.Fatalf("minimized query invalid: %v\n%s", err, m)
			}
			g := graph.New(0, 0)
			tc.graph(g)
			g.Freeze()
			h := reach.NewTC(g)
			want, got := EvalNaive(g, h, q), EvalNaive(g, h, m)
			if want.Len() != tc.rows || !want.SameResults(got) {
				t.Fatalf("minimization changed the answer: %d rows, minimized %d\n%s\nvs\n%s", want.Len(), got.Len(), q, m)
			}
		})
	}
}

func TestMinimalEquivalentsAreIsomorphic(t *testing.T) {
	// Proposition 5: minimal equivalent queries are unique up to
	// isomorphism — minimizing two equivalent formulations of the Fig 4
	// pattern yields structures of identical size that are mutually
	// contained.
	ident := func(f *logic.Formula) *logic.Formula { return f }
	q1, _ := fig4Q1(ident, AD)
	m1 := Minimize(q1)
	m2 := Minimize(fig4Q3())
	if m1.Size() != m2.Size() {
		t.Fatalf("minimal equivalents differ in size: %d vs %d", m1.Size(), m2.Size())
	}
	if !Equivalent(m1, m2) {
		t.Fatal("minimal equivalents are not equivalent")
	}
}

package graph

import (
	"math/rand"
	"testing"
)

// buildDiamond returns the 4-node diamond a -> b, a -> c, b -> d, c -> d.
func buildDiamond() (*Graph, []NodeID) {
	g := New(4, 4)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	c := g.AddNode("c", nil)
	d := g.AddNode("d", nil)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	g.Freeze()
	return g, []NodeID{a, b, c, d}
}

func TestBasicConstruction(t *testing.T) {
	g, ids := buildDiamond()
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if g.Label(ids[1]) != "b" {
		t.Errorf("Label = %q", g.Label(ids[1]))
	}
	if len(g.Out(ids[0])) != 2 || len(g.In(ids[3])) != 2 {
		t.Errorf("adjacency wrong")
	}
	if !g.HasEdge(ids[0], ids[1]) || g.HasEdge(ids[1], ids[0]) {
		t.Errorf("HasEdge wrong")
	}
}

func TestLabelIndex(t *testing.T) {
	g := New(0, 0)
	g.AddNode("x", nil)
	g.AddNode("y", nil)
	g.AddNode("x", nil)
	g.Freeze()
	if got := g.ByLabel("x"); len(got) != 2 {
		t.Errorf("ByLabel(x) = %v", got)
	}
	if got := g.ByLabel("z"); got != nil {
		t.Errorf("ByLabel(z) = %v, want nil", got)
	}
	ls := g.Labels()
	if len(ls) != 2 || ls[0] != "x" || ls[1] != "y" {
		t.Errorf("Labels = %v", ls)
	}
}

func TestAttrs(t *testing.T) {
	g := New(0, 0)
	v := g.AddNode("person", Attrs{"year": NumV(2005), "name": StrV("Alice")})
	g.Freeze()
	if val, ok := g.Attr(v, "year"); !ok || val.Num != 2005 {
		t.Errorf("year attr wrong: %v %v", val, ok)
	}
	if val, ok := g.Attr(v, "label"); !ok || val.Str != "person" {
		t.Errorf("label attr wrong: %v %v", val, ok)
	}
	if _, ok := g.Attr(v, "missing"); ok {
		t.Error("missing attr should not be found")
	}
}

func TestValueCompare(t *testing.T) {
	if NumV(1).Compare(NumV(2)) != -1 || NumV(2).Compare(NumV(1)) != 1 || NumV(3).Compare(NumV(3)) != 0 {
		t.Error("numeric compare wrong")
	}
	if StrV("a").Compare(StrV("b")) != -1 || StrV("b").Compare(StrV("a")) != 1 {
		t.Error("string compare wrong")
	}
}

func TestCrossEdges(t *testing.T) {
	g := New(0, 0)
	a := g.AddNode("ref", nil)
	b := g.AddNode("person", nil)
	c := g.AddNode("child", nil)
	g.AddCrossEdge(a, b)
	g.AddEdge(a, c)
	g.Freeze()
	if g.EdgeKindOf(a, b) != CrossEdge {
		t.Error("cross edge not marked")
	}
	if g.EdgeKindOf(a, c) != TreeEdge {
		t.Error("tree edge misreported")
	}
	var cross []NodeID
	cross = g.CrossTargets(a, cross)
	if len(cross) != 1 || cross[0] != b {
		t.Errorf("CrossTargets = %v", cross)
	}
	var kids []NodeID
	kids = g.TreeChildren(a, kids)
	if len(kids) != 1 || kids[0] != c {
		t.Errorf("TreeChildren = %v", kids)
	}
	if g.TreeParent(c) != a {
		t.Errorf("TreeParent = %v", g.TreeParent(c))
	}
	if g.TreeParent(b) != -1 {
		t.Errorf("cross target should have no tree parent")
	}
}

func TestCondenseDAG(t *testing.T) {
	g, ids := buildDiamond()
	c := Condense(g)
	if c.NumSCC() != 4 {
		t.Fatalf("DAG should have 4 singleton SCCs, got %d", c.NumSCC())
	}
	for s := int32(0); s < 4; s++ {
		if c.Nontrivial(s) {
			t.Errorf("SCC %d should be trivial", s)
		}
	}
	// Descending SCC id is a topological order: a before b,c before d.
	if c.Comp[ids[0]] < c.Comp[ids[3]] {
		t.Error("topological order violated")
	}
}

func TestCondenseCycle(t *testing.T) {
	g := New(0, 0)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	c := g.AddNode("c", nil)
	d := g.AddNode("d", nil)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, a) // cycle a-b-c
	g.AddEdge(c, d)
	g.Freeze()
	cond := Condense(g)
	if cond.NumSCC() != 2 {
		t.Fatalf("want 2 SCCs, got %d", cond.NumSCC())
	}
	sc := cond.Comp[a]
	if cond.Comp[b] != sc || cond.Comp[c] != sc {
		t.Error("cycle nodes should share an SCC")
	}
	if !cond.Nontrivial(sc) {
		t.Error("cycle SCC should be nontrivial")
	}
	if cond.Nontrivial(cond.Comp[d]) {
		t.Error("d's SCC should be trivial")
	}
}

func TestCondenseSelfLoop(t *testing.T) {
	g := New(0, 0)
	a := g.AddNode("a", nil)
	g.AddEdge(a, a)
	g.Freeze()
	c := Condense(g)
	if !c.Nontrivial(c.Comp[a]) {
		t.Error("self-loop SCC should be nontrivial")
	}
}

func TestCondenseTopoIsValid(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(40)
		g := New(n, 0)
		for i := 0; i < n; i++ {
			g.AddNode("n", nil)
		}
		for e := 0; e < n*2; e++ {
			g.AddEdge(NodeID(r.Intn(n)), NodeID(r.Intn(n)))
		}
		g.Freeze()
		c := Condense(g)
		for s := int32(0); s < int32(c.NumSCC()); s++ {
			for _, w := range c.Out(s) {
				if s <= w {
					t.Fatalf("topo order violated: %d -> %d", s, w)
				}
			}
		}
		// Comp covers all nodes.
		for v := 0; v < n; v++ {
			if c.Comp[v] < 0 || int(c.Comp[v]) >= c.NumSCC() {
				t.Fatalf("node %d has bad comp %d", v, c.Comp[v])
			}
		}
	}
}

func TestReachableFrom(t *testing.T) {
	g, ids := buildDiamond()
	r := ReachableFrom(g, ids[0])
	if !r[ids[1]] || !r[ids[2]] || !r[ids[3]] || r[ids[0]] {
		t.Errorf("ReachableFrom(a) = %v", r)
	}
	r = ReachableFrom(g, ids[3])
	if len(r) != 0 {
		t.Errorf("ReachableFrom(d) = %v, want empty", r)
	}
}

func TestReachableFromCycle(t *testing.T) {
	g := New(0, 0)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	g.Freeze()
	r := ReachableFrom(g, a)
	if !r[a] || !r[b] {
		t.Errorf("cycle reachability wrong: %v", r)
	}
}

func TestDocOrder(t *testing.T) {
	// root -> (x -> y), z ; cross edge y -> z must not affect intervals.
	g := New(0, 0)
	root := g.AddNode("root", nil)
	x := g.AddNode("x", nil)
	y := g.AddNode("y", nil)
	z := g.AddNode("z", nil)
	g.AddEdge(root, x)
	g.AddEdge(x, y)
	g.AddEdge(root, z)
	g.AddCrossEdge(y, z)
	g.Freeze()
	d := NewDocOrder(g)
	// encloses reports whether u's interval strictly encloses v's.
	encloses := func(u, v NodeID) bool { return d.Start[u] < d.Start[v] && d.End[v] < d.End[u] }
	if !encloses(root, y) || !encloses(x, y) {
		t.Error("ancestor intervals wrong")
	}
	if encloses(y, z) {
		t.Error("cross edge must not create document ancestorship")
	}
	if d.Level[y] != 2 || d.Level[root] != 0 {
		t.Errorf("levels wrong: %v", d.Level)
	}
}

func TestRoots(t *testing.T) {
	g := New(0, 0)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	c := g.AddNode("c", nil)
	g.AddEdge(a, b)
	g.AddCrossEdge(b, c) // c has no tree parent -> root
	g.Freeze()
	roots := Roots(g)
	if len(roots) != 2 || roots[0] != a || roots[1] != c {
		t.Errorf("Roots = %v", roots)
	}
}

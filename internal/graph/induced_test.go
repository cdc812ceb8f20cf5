package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// vertexSets draws the vertex sets TestInducedMatchesBuilder cuts a
// graph of n nodes by: the empty set, the full set, a prefix, and
// random subsets of several densities, each ascending.
func vertexSets(r *rand.Rand, n int) [][]NodeID {
	all := make([]NodeID, n)
	for i := range all {
		all[i] = NodeID(i)
	}
	sets := [][]NodeID{nil, all, all[:n/2]}
	for _, p := range []float64{0.2, 0.5, 0.8} {
		var s []NodeID
		for _, v := range all {
			if r.Float64() < p {
				s = append(s, v)
			}
		}
		sets = append(sets, s)
	}
	return sets
}

// buildInduced is the oracle: the subgraph on verts built through
// AddNode, AddEdge/AddCrossEdge and Freeze from the calls the model
// records, nodes first, then the edges with both ends kept, in the
// order they were added.
func buildInduced(m *model, verts []NodeID) *Graph {
	local := map[NodeID]NodeID{}
	g := New(0, 0)
	for _, v := range verts {
		local[v] = g.AddNode(m.labels[v], m.attrs[v])
	}
	for _, e := range m.edges {
		lu, okU := local[e.u]
		lv, okV := local[e.v]
		if !okU || !okV {
			continue
		}
		if e.kind == CrossEdge {
			g.AddCrossEdge(lu, lv)
		} else {
			g.AddEdge(lu, lv)
		}
	}
	g.Freeze()
	return g
}

// TestInducedMatchesBuilder checks Induced against the builder on
// random multigraphs (numeric and string attributes, repeated string
// values, duplicate edges, a tree and a cross edge between one pair,
// self-loops) cut by empty, full and edge-cutting vertex sets: the
// image, every in-row and every label row must be the builder's, and
// no kept array may carry spare capacity.
func TestInducedMatchesBuilder(t *testing.T) {
	cut := 0
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		m, g := randomModel(r)
		g.Freeze()
		for _, verts := range vertexSets(r, g.N()) {
			got, want := g.Induced(verts), buildInduced(m, verts)
			leaving := 0
			for _, v := range verts {
				leaving += len(g.Out(v))
			}
			if got.M() < leaving {
				cut++
			}
			if !bytes.Equal(got.AppendImage(nil), want.AppendImage(nil)) {
				t.Fatalf("seed %d, verts %v: image differs from the builder's", seed, verts)
			}
			for v := NodeID(0); int(v) < want.N(); v++ {
				if !slices.Equal(got.In(v), want.In(v)) {
					t.Fatalf("seed %d, verts %v: In(%d) = %v, want %v", seed, verts, v, got.In(v), want.In(v))
				}
			}
			for _, l := range want.Labels() {
				if !slices.Equal(got.ByLabel(l), want.ByLabel(l)) {
					t.Fatalf("seed %d, verts %v: ByLabel(%q) = %v, want %v", seed, verts, l, got.ByLabel(l), want.ByLabel(l))
				}
			}
			if !slices.Equal(got.Labels(), want.Labels()) || !slices.Equal(got.hasAttrs, want.hasAttrs) {
				t.Fatalf("seed %d, verts %v: label table or attribute bits differ", seed, verts)
			}
			for _, s := range [][2]int{
				{len(got.labelTab), cap(got.labelTab)},
				{len(got.attrNode), cap(got.attrNode)},
				{len(got.attrs.off), cap(got.attrs.off)},
				{len(got.attrs.val), cap(got.attrs.val)},
				{len(got.attrName), cap(got.attrName)},
				{len(got.attrStr), cap(got.attrStr)},
				{len(got.out.val), cap(got.out.val)},
			} {
				if s[0] != s[1] {
					t.Fatalf("seed %d, verts %v: an array has len %d, cap %d", seed, verts, s[0], s[1])
				}
			}
		}
	}
	if cut == 0 {
		t.Fatal("no vertex set cut an edge")
	}
}

// TestInducedFidelity checks that labels, attributes and edge kinds
// survive the cut, and that an edge leaving the set is dropped.
func TestInducedFidelity(t *testing.T) {
	g := New(4, 3)
	g.AddNode("a", Attrs{"year": NumV(2001)})
	g.AddNode("b", Attrs{"name": StrV("x")})
	g.AddNode("c", nil)
	g.AddNode("d", nil)
	g.AddEdge(0, 1)
	g.AddCrossEdge(1, 2)
	g.AddEdge(0, 3)
	g.Freeze()
	sg := g.Induced([]NodeID{0, 1, 2})
	if sg.N() != 3 || sg.M() != 2 {
		t.Fatalf("subgraph %d nodes %d edges, want 3/2", sg.N(), sg.M())
	}
	if sg.Label(0) != "a" || sg.Label(1) != "b" || sg.Label(2) != "c" {
		t.Fatal("labels lost")
	}
	if v, ok := sg.Attr(0, "year"); !ok || v.Num != 2001 {
		t.Fatal("numeric attribute lost")
	}
	if v, ok := sg.Attr(1, "name"); !ok || v.Str != "x" {
		t.Fatal("string attribute lost")
	}
	if sg.EdgeKindOf(0, 1) != TreeEdge || sg.EdgeKindOf(1, 2) != CrossEdge {
		t.Fatal("edge kinds lost")
	}
}

// TestInducedRejectsUnsortedSet checks that a vertex set out of order
// or with a repeated node panics instead of building a wrong graph.
func TestInducedRejectsUnsortedSet(t *testing.T) {
	g := New(3, 0)
	for i := 0; i < 3; i++ {
		g.AddNode("a", nil)
	}
	g.Freeze()
	for _, verts := range [][]NodeID{{1, 0}, {0, 2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Induced(%v) did not panic", verts)
				}
			}()
			g.Induced(verts)
		}()
	}
}

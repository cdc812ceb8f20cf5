package graph

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// model is the naive description of a graph the flat layout is checked
// against: the AddNode / AddEdge calls as made, answered by scanning.
type model struct {
	labels []string
	attrs  []Attrs
	edges  []edge
}

func (m *model) out(v NodeID) []NodeID {
	var xs []NodeID
	for _, e := range m.edges {
		if e.u == v {
			xs = append(xs, e.v)
		}
	}
	slices.Sort(xs)
	return xs
}

func (m *model) in(v NodeID) []NodeID {
	var xs []NodeID
	for _, e := range m.edges {
		if e.v == v {
			xs = append(xs, e.u)
		}
	}
	slices.Sort(xs)
	return xs
}

// kind is (exists, kind): a pair joined by any cross edge is cross.
func (m *model) kind(u, v NodeID) (bool, EdgeKind) {
	has, k := false, TreeEdge
	for _, e := range m.edges {
		if e.u == u && e.v == v {
			has = true
			if e.kind == CrossEdge {
				k = CrossEdge
			}
		}
	}
	return has, k
}

func (m *model) outOfKind(v NodeID, k EdgeKind) []NodeID {
	var xs []NodeID
	for _, w := range m.out(v) {
		if _, got := m.kind(v, w); got == k {
			xs = append(xs, w)
		}
	}
	return xs
}

// randomModel draws a multigraph with everything the layout has to get
// right: duplicate edges, self-loops, a tree and a cross edge between
// one pair, isolated nodes, nodes with, without and with empty
// attributes, one attribute name carrying a number on some nodes and a
// string on others, an explicit label attribute, values repeated across
// nodes, and nodes added after edges. The caller changes every
// attribute map after AddNode; the graph must have copied it.
func randomModel(r *rand.Rand) (*model, *Graph) {
	m := &model{}
	g := New(0, 0)
	addNode := func() {
		label := fmt.Sprintf("l%d", r.Intn(5))
		var attrs Attrs
		switch r.Intn(5) {
		case 0:
			attrs = Attrs{"year": NumV(float64(1990 + r.Intn(30)))}
		case 1:
			attrs = Attrs{"tag": StrV("explicit"), "name": StrV(label)}
		case 2:
			attrs = Attrs{}
		case 3:
			attrs = Attrs{"year": StrV(fmt.Sprintf("y%d", r.Intn(3))), "label": StrV("explicit")}
		}
		m.labels = append(m.labels, label)
		m.attrs = append(m.attrs, maps.Clone(attrs))
		if got := g.AddNode(label, attrs); int(got) != len(m.labels)-1 {
			panic("AddNode ids are not dense")
		}
		if attrs != nil {
			attrs["year"] = StrV("changed after AddNode")
			attrs["late"] = NumV(1)
			delete(attrs, "tag")
		}
	}
	addEdge := func(u, v NodeID, k EdgeKind) {
		m.edges = append(m.edges, edge{u, v, k})
		if k == CrossEdge {
			g.AddCrossEdge(u, v)
		} else {
			g.AddEdge(u, v)
		}
	}
	for round := 0; round < 3; round++ {
		for i := 1 + r.Intn(12); i > 0; i-- {
			addNode()
		}
		n := len(m.labels)
		for i := r.Intn(3 * n); i > 0; i-- {
			u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			k := EdgeKind(r.Intn(2))
			addEdge(u, v, k)
			switch r.Intn(6) {
			case 0:
				addEdge(u, v, k) // duplicate
			case 1:
				addEdge(u, v, 1-k) // same pair, other kind
			case 2:
				addEdge(u, u, k) // self-loop
			}
		}
	}
	addNode() // isolated, after every edge
	return m, g
}

func TestLayoutMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		m, g := randomModel(rand.New(rand.NewSource(seed)))
		if g.N() != len(m.labels) || g.M() != len(m.edges) {
			t.Fatalf("seed %d: before Freeze N, M = %d, %d, want %d, %d", seed, g.N(), g.M(), len(m.labels), len(m.edges))
		}
		g.Freeze()
		g.Freeze()
		if g.edges != nil || g.attrStrID != nil {
			t.Fatalf("seed %d: builder state survives Freeze", seed)
		}
		if g.N() != len(m.labels) || g.M() != len(m.edges) {
			t.Fatalf("seed %d: N, M = %d, %d, want %d, %d", seed, g.N(), g.M(), len(m.labels), len(m.edges))
		}
		byLabel := map[string][]NodeID{}
		for i := range m.labels {
			v := NodeID(i)
			byLabel[m.labels[i]] = append(byLabel[m.labels[i]], v)
			if g.Label(v) != m.labels[i] {
				t.Fatalf("seed %d: Label(%d) = %q, want %q", seed, v, g.Label(v), m.labels[i])
			}
			keys := g.AttrKeys(v) // sorted
			var wantKeys []string
			for k := range m.attrs[i] {
				wantKeys = append(wantKeys, k)
			}
			sort.Strings(wantKeys)
			if !slices.Equal(keys, wantKeys) {
				t.Fatalf("seed %d: AttrKeys(%d) = %v, want %v", seed, v, keys, wantKeys)
			}
			if got := g.AttrMap(v); !maps.Equal(got, m.attrs[i]) {
				t.Fatalf("seed %d: AttrMap(%d) = %v, want %v", seed, v, got, m.attrs[i])
			}
			for _, name := range []string{"label", "tag", "year", "name", "late", "absent"} {
				want, ok := m.attrs[i][name]
				if !ok && (name == "label" || name == "tag") {
					want, ok = StrV(m.labels[i]), true
				}
				if got, gotOK := g.Attr(v, name); gotOK != ok || got != want {
					t.Fatalf("seed %d: Attr(%d, %q) = %v, %v, want %v, %v", seed, v, name, got, gotOK, want, ok)
				}
			}
			if got, want := g.Out(v), m.out(v); !slices.Equal(got, want) {
				t.Fatalf("seed %d: Out(%d) = %v, want %v", seed, v, got, want)
			}
			if got, want := g.In(v), m.in(v); !slices.Equal(got, want) {
				t.Fatalf("seed %d: In(%d) = %v, want %v", seed, v, got, want)
			}
			if got, want := g.TreeChildren(v, nil), m.outOfKind(v, TreeEdge); !slices.Equal(got, want) {
				t.Fatalf("seed %d: TreeChildren(%d) = %v, want %v", seed, v, got, want)
			}
			if got, want := g.CrossTargets(v, nil), m.outOfKind(v, CrossEdge); !slices.Equal(got, want) {
				t.Fatalf("seed %d: CrossTargets(%d) = %v, want %v", seed, v, got, want)
			}
			parent := NodeID(-1)
			for _, u := range m.in(v) {
				if _, k := m.kind(u, v); k == TreeEdge {
					parent = u
					break
				}
			}
			if got := g.TreeParent(v); got != parent {
				t.Fatalf("seed %d: TreeParent(%d) = %d, want %d", seed, v, got, parent)
			}
			for j := range m.labels {
				w := NodeID(j)
				has, k := m.kind(v, w)
				if g.HasEdge(v, w) != has || g.EdgeKindOf(v, w) != k {
					t.Fatalf("seed %d: edge %d -> %d: HasEdge %v kind %v, want %v %v",
						seed, v, w, g.HasEdge(v, w), g.EdgeKindOf(v, w), has, k)
				}
			}
		}
		var labels []string
		for l, want := range byLabel {
			labels = append(labels, l)
			if got := g.ByLabel(l); !slices.Equal(got, want) {
				t.Fatalf("seed %d: ByLabel(%q) = %v, want %v", seed, l, got, want)
			}
		}
		sort.Strings(labels)
		if got := g.Labels(); !slices.Equal(got, labels) {
			t.Fatalf("seed %d: Labels() = %v, want %v", seed, got, labels)
		}
		if got := g.ByLabel("no such label"); len(got) != 0 {
			t.Fatalf("seed %d: ByLabel of an unknown label = %v", seed, got)
		}
		checkCondensation(t, seed, m, Condense(g))
	}
}

// checkCondensation compares c with the SCCs read off a naive transitive
// closure of m.
func checkCondensation(t *testing.T, seed int64, m *model, c *Condensation) {
	t.Helper()
	n := len(m.labels)
	reach := make([][]bool, n) // reach[u][v]: a path of length >= 1
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	for _, e := range m.edges {
		reach[e.u][e.v] = true
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; reach[i][k] && j < n; j++ {
				reach[i][j] = reach[i][j] || reach[k][j]
			}
		}
	}
	members := 0
	for s := int32(0); s < int32(c.NumSCC()); s++ {
		ms := c.Members(s)
		members += len(ms)
		if len(ms) == 0 {
			t.Fatalf("seed %d: SCC %d is empty", seed, s)
		}
		for _, v := range ms {
			if c.Comp[v] != s {
				t.Fatalf("seed %d: node %d is a member of SCC %d but Comp says %d", seed, v, s, c.Comp[v])
			}
		}
		if got, want := c.Nontrivial(s), reach[ms[0]][ms[0]]; got != want {
			t.Fatalf("seed %d: Nontrivial(%d) = %v, want %v", seed, s, got, want)
		}
	}
	if members != n {
		t.Fatalf("seed %d: SCCs hold %d of %d nodes", seed, members, n)
	}
	wantOut := make([]map[int32]bool, c.NumSCC())
	wantIn := make([]map[int32]bool, c.NumSCC())
	for s := range wantOut {
		wantOut[s], wantIn[s] = map[int32]bool{}, map[int32]bool{}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if same := u == v || (reach[u][v] && reach[v][u]); same != (c.Comp[u] == c.Comp[v]) {
				t.Fatalf("seed %d: nodes %d and %d: same SCC %v, want %v", seed, u, v, !same, same)
			}
		}
	}
	for _, e := range m.edges {
		if su, sv := c.Comp[e.u], c.Comp[e.v]; su != sv {
			wantOut[su][sv], wantIn[sv][su] = true, true
		}
	}
	for s := int32(0); s < int32(c.NumSCC()); s++ {
		for name, pair := range map[string]struct {
			got  []int32
			want map[int32]bool
		}{"Out": {c.Out(s), wantOut[s]}, "In": {c.In(s), wantIn[s]}} {
			if len(pair.got) != len(pair.want) {
				t.Fatalf("seed %d: %s(%d) = %v, want the set %v (each once)", seed, name, s, pair.got, pair.want)
			}
			for _, x := range pair.got {
				if !pair.want[x] {
					t.Fatalf("seed %d: %s(%d) = %v, want the set %v", seed, name, s, pair.got, pair.want)
				}
			}
		}
		for _, w := range c.Out(s) {
			if w >= s {
				t.Fatalf("seed %d: DAG edge %d -> %d does not lead to a smaller id", seed, s, w)
			}
		}
	}
}

// TestCondenseDedupsNonContiguousSCC pins the fix for duplicate DAG
// edges: the members 0 and 2 of one SCC are separated in id order by
// node 1 of another, and all three point at node 3.
func TestCondenseDedupsNonContiguousSCC(t *testing.T) {
	g := New(4, 5)
	for i := 0; i < 4; i++ {
		g.AddNode("n", nil)
	}
	g.AddEdge(0, 2)
	g.AddEdge(2, 0)
	g.AddEdge(0, 3)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	c := Condense(g)
	a, b, sink := c.Comp[0], c.Comp[1], c.Comp[3]
	if c.Comp[2] != a || a == b || c.NumSCC() != 3 {
		t.Fatalf("Comp = %v, want {0,2}, {1}, {3}", c.Comp)
	}
	if got := c.Out(a); !slices.Equal(got, []int32{sink}) {
		t.Errorf("Out({0,2}) = %v, want [%d]", got, sink)
	}
	if got := c.In(sink); !slices.Equal(got, []int32{a, b}) {
		t.Errorf("In({3}) = %v, want [%d %d] (first-occurrence order)", got, a, b)
	}
}

// TestFreezeKeepsNoSpareCapacity checks that the arrays a frozen graph
// keeps are exactly as long as their contents, whether the graph was
// built without hints or with exact ones.
func TestFreezeKeepsNoSpareCapacity(t *testing.T) {
	build := func(nodeHint, edgeHint int) *Graph {
		g := New(nodeHint, edgeHint)
		for i := 0; i < 300; i++ {
			var attrs Attrs
			if i%3 == 0 {
				attrs = Attrs{"year": NumV(float64(i)), "name": StrV(fmt.Sprint("n", i%7))}
			}
			g.AddNode(fmt.Sprint("l", i%11), attrs)
		}
		for i := 1; i < 300; i++ {
			g.AddEdge(NodeID(i/2), NodeID(i))
		}
		g.Freeze()
		return g
	}
	for _, hints := range [][2]int{{0, 0}, {300, 299}} {
		g := build(hints[0], hints[1])
		for _, a := range []struct {
			name     string
			len, cap int
		}{
			{"labelOf", len(g.labelOf), cap(g.labelOf)},
			{"labelTab", len(g.labelTab), cap(g.labelTab)},
			{"hasAttrs", len(g.hasAttrs), cap(g.hasAttrs)},
			{"attrNode", len(g.attrNode), cap(g.attrNode)},
			{"attrs.off", len(g.attrs.off), cap(g.attrs.off)},
			{"attrs.val", len(g.attrs.val), cap(g.attrs.val)},
			{"attrName", len(g.attrName), cap(g.attrName)},
			{"attrStr", len(g.attrStr), cap(g.attrStr)},
		} {
			if a.cap != a.len {
				t.Errorf("New(%d, %d): %s has len %d, cap %d", hints[0], hints[1], a.name, a.len, a.cap)
			}
		}
	}
}

// Package graph provides the directed, attributed data-graph model used
// throughout the repository, plus the structural utilities (SCC
// condensation, topological order) every reachability index builds on.
//
// A data graph in the paper is G = (V, E, f) with f assigning attribute
// tuples to nodes. Nodes here carry a primary string label (the common
// case in the evaluation: XMark tags / group labels, arXiv labels) and an
// optional attribute map for richer predicates.
//
// Layout. A graph is built through New/AddNode/AddEdge/AddCrossEdge,
// which only append to a label-id array and one flat edge list, and
// becomes readable at Freeze. Freeze counting-sorts the edge list twice
// (by target, then by source) into two offset + payload arrays (csr) —
// out- and in-adjacency, each row sorted by node id, duplicates kept —
// marks cross edges in a bitset parallel to the out payload, groups the
// node ids by label into a third csr, and drops the edge list. Labels
// are interned: a node stores an int32 into the table of distinct
// labels. Attributes are one more csr, with a row only for the nodes
// that have any: each entry is a name id plus a number or the id of an
// interned string value, 16 B and no pointer, and each row is sorted by
// name. AddNode copies the caller's map into it. A frozen graph
// therefore costs about 8 B per node and 8 B per edge plus 4 B per node
// for each of the label ids and the label index, none of it pointers
// the collector has to follow; Condense stores the SCC quotient the
// same way. Induced cuts a frozen graph down to a vertex set by copying
// these arrays, into the graph the builder would make of the same
// nodes and edges.
package graph

import (
	"fmt"
	"slices"
)

// NodeID identifies a node in a Graph. IDs are dense, starting at 0.
type NodeID int32

// Value is an attribute value: either a string or a number.
type Value struct {
	IsNum bool
	Str   string
	Num   float64
}

// StrV wraps a string attribute value.
func StrV(s string) Value { return Value{Str: s} }

// NumV wraps a numeric attribute value.
func NumV(n float64) Value { return Value{IsNum: true, Num: n} }

// String renders the value for diagnostics.
func (v Value) String() string {
	if v.IsNum {
		return fmt.Sprintf("%g", v.Num)
	}
	return v.Str
}

// Compare returns -1, 0, or +1 comparing v to w. Strings compare
// lexicographically; numbers numerically; a number compares to a string
// through its rendering (mixed comparisons are rare and only need a
// deterministic order).
func (v Value) Compare(w Value) int {
	if v.IsNum && w.IsNum {
		switch {
		case v.Num < w.Num:
			return -1
		case v.Num > w.Num:
			return 1
		}
		return 0
	}
	a, b := v.String(), w.String()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Attrs is the attribute tuple of a node (the paper's f(v)). The primary
// label lives separately in Graph for speed; Attrs covers additional
// attributes such as year or value.
type Attrs map[string]Value

// EdgeKind distinguishes document-internal (tree) edges from ID/IDREF
// cross edges in XML-derived graphs. Engines that decompose queries at
// cross edges (TwigStack et al.) need the distinction; graph-native
// engines ignore it.
type EdgeKind uint8

const (
	// TreeEdge is a parent-child edge of the underlying document forest.
	TreeEdge EdgeKind = iota
	// CrossEdge is an ID/IDREF (or generally non-tree) edge.
	CrossEdge
)

// Graph is a directed graph with attributed nodes. Construction is
// append-only: add nodes and edges, then Freeze (or let an index freeze
// it). Adjacency, the label index and edge kinds exist only once the
// graph is frozen.
type Graph struct {
	labelOf  []int32          // per node: index into labelTab
	labelTab []string         // distinct labels in first-use order
	labelID  map[string]int32 // inverse of labelTab

	hasAttrs   bitset           // per node
	attrNode   []NodeID         // nodes with explicit attributes, ascending
	attrs      csr[attrEntry]   // parallel to attrNode: the node's attributes, sorted by name
	attrName   []string         // distinct attribute names
	attrNameID map[string]int32 // inverse of attrName
	attrStr    []string         // distinct string values
	attrStrID  map[string]int32 // builder state: inverse of attrStr; nil once frozen

	edges  []edge // builder state: every added edge, in call order; nil once frozen
	frozen bool

	out, in csr[NodeID] // rows sorted by node id, duplicate edges kept
	cross   bitset      // parallel to out.val: the edge is a cross edge
	byLabel csr[NodeID] // label id -> nodes in id order
}

type edge struct {
	u, v NodeID
	kind EdgeKind
}

// attrEntry is one explicit attribute: a name id, and either an id into
// attrStr or, when str is -1, a number.
type attrEntry struct {
	name, str int32
	num       float64
}

// New returns an empty graph with capacity hints.
func New(nodeHint, edgeHint int) *Graph {
	return &Graph{
		labelOf:    make([]int32, 0, nodeHint),
		labelID:    make(map[string]int32),
		attrs:      csr[attrEntry]{off: []int32{0}},
		attrNameID: make(map[string]int32),
		attrStrID:  make(map[string]int32),
		edges:      make([]edge, 0, edgeHint),
	}
}

// AddNode appends a node with the given label and optional attributes
// and returns its id. The attributes are copied: the caller may reuse
// or change attrs afterwards.
func (g *Graph) AddNode(label string, attrs Attrs) NodeID {
	if g.frozen {
		panic("graph: AddNode after Freeze")
	}
	id := NodeID(len(g.labelOf))
	g.labelOf = append(g.labelOf, intern(label, &g.labelTab, g.labelID))
	if id&63 == 0 {
		g.hasAttrs = append(g.hasAttrs, 0)
	}
	if len(attrs) == 0 {
		return id
	}
	g.hasAttrs.set(int32(id))
	g.attrNode = append(g.attrNode, id)
	var buf [8]string // no allocation for up to 8 attributes
	names := buf[:0]
	for name := range attrs {
		names = append(names, name)
	}
	slices.Sort(names) // rows are sorted by name, and ids are given in that order
	for _, name := range names {
		val := attrs[name]
		e := attrEntry{name: intern(name, &g.attrName, g.attrNameID), str: -1, num: val.Num}
		if !val.IsNum {
			e.str, e.num = intern(val.Str, &g.attrStr, g.attrStrID), 0
		}
		g.attrs.val = append(g.attrs.val, e)
	}
	g.attrs.off = append(g.attrs.off, int32(len(g.attrs.val)))
	return id
}

// intern returns the id of s in tab, appending it if it is new.
func intern(s string, tab *[]string, ids map[string]int32) int32 {
	id, ok := ids[s]
	if !ok {
		id = int32(len(*tab))
		*tab = append(*tab, s)
		ids[s] = id
	}
	return id
}

// AddEdge adds a directed tree edge u -> v.
func (g *Graph) AddEdge(u, v NodeID) { g.addEdge(u, v, TreeEdge) }

// AddCrossEdge adds a directed cross (ID/IDREF) edge u -> v.
func (g *Graph) AddCrossEdge(u, v NodeID) { g.addEdge(u, v, CrossEdge) }

func (g *Graph) addEdge(u, v NodeID, k EdgeKind) {
	if g.frozen {
		panic("graph: AddEdge after Freeze")
	}
	if n := uint32(len(g.labelOf)); uint32(u) >= n || uint32(v) >= n {
		panic(fmt.Sprintf("graph: edge %d -> %d names a node outside [0, %d)", u, v, n))
	}
	g.edges = append(g.edges, edge{u: u, v: v, kind: k})
}

// Freeze finalizes the graph: the edge list is sorted into the out- and
// in-adjacency arrays, the label index is built and the builder state
// is dropped. Freeze is idempotent.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	g.frozen = true
	n := len(g.labelOf)
	// Two stable counting sorts, by target and then by source, leave the
	// edges ordered by (source, target): sorted rows, no comparison sort.
	self := func(e edge) edge { return e }
	src := func(e edge) int32 { return int32(e.u) }
	dst := func(e edge) int32 { return int32(e.v) }
	es := bucket(n, bucket(n, g.edges, dst, self).val, src, self)
	g.edges, g.attrStrID = nil, nil
	// The builder arrays that stay resident grew by append: copy each to
	// its length, so a frozen graph costs the same whatever hints New had.
	g.labelOf, g.labelTab = exact(g.labelOf), exact(g.labelTab)
	g.hasAttrs, g.attrNode = exact(g.hasAttrs), exact(g.attrNode)
	g.attrs = csr[attrEntry]{off: exact(g.attrs.off), val: exact(g.attrs.val)}
	g.attrName, g.attrStr = exact(g.attrName), exact(g.attrStr)
	g.out = csr[NodeID]{off: es.off, val: make([]NodeID, len(es.val))}
	g.cross = newBitset(len(es.val))
	for i := 0; i < len(es.val); {
		// One run of parallel edges u -> v. A pair joined by both a tree
		// and a cross edge counts as cross throughout.
		j, anyCross := i, false
		for ; j < len(es.val) && es.val[j].u == es.val[i].u && es.val[j].v == es.val[i].v; j++ {
			g.out.val[j] = es.val[j].v
			anyCross = anyCross || es.val[j].kind == CrossEdge
		}
		for ; i < j; i++ {
			if anyCross {
				g.cross.set(int32(i))
			}
		}
	}
	g.derive(es.val)
}

// derive builds what a frozen graph derives from its edges, given in
// (source, target) order, and its labels: the in-adjacency and the
// label index.
func (g *Graph) derive(es []edge) {
	n := len(g.labelOf)
	g.in = bucket(n, es, func(e edge) int32 { return int32(e.v) }, func(e edge) NodeID { return e.u })
	nodes := make([]NodeID, n)
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	g.byLabel = bucket(len(g.labelTab), nodes,
		func(v NodeID) int32 { return g.labelOf[v] }, func(v NodeID) NodeID { return v })
}

// Induced returns the frozen subgraph of the frozen graph g induced by
// verts, which must ascend strictly: local id i is verts[i], and edges
// to nodes outside verts are dropped. Labels, attributes and edge kinds
// carry over. It is the graph AddNode, AddEdge/AddCrossEdge and Freeze
// build when given verts' nodes in order and then their edges, down to
// the image: each string table is renumbered in order of first use, as
// intern numbers it. It copies rows straight from g's arrays, through a
// dense local-id table, with no attribute map and no sort: rows of g
// ascend, and so do their local ids. verts is not retained.
func (g *Graph) Induced(verts []NodeID) *Graph {
	g.mustBeFrozen()
	n := len(verts)
	local := make([]int32, g.N()) // local id + 1; 0 outside verts
	for i, v := range verts {
		if i > 0 && v <= verts[i-1] {
			panic(fmt.Sprintf("graph: Induced: node %d after %d, want ascending ids", v, verts[i-1]))
		}
		local[v] = int32(i) + 1
	}
	sg := &Graph{frozen: true, labelOf: make([]int32, n), hasAttrs: newBitset(n)}

	labels := newRenumbering(g.labelTab)
	for i, v := range verts {
		sg.labelOf[i] = labels.id(g.labelOf[v])
	}
	sg.labelTab = exact(labels.tab)

	names, strs := newRenumbering(g.attrName), newRenumbering(g.attrStr)
	sg.attrs.off = []int32{0}
	row := 0 // position in g.attrNode: verts ascend, so each search resumes here
	for i, v := range verts {
		if !g.hasAttrs.get(int32(v)) {
			continue
		}
		k, _ := slices.BinarySearch(g.attrNode[row:], v)
		row += k
		sg.hasAttrs.set(int32(i))
		sg.attrNode = append(sg.attrNode, NodeID(i))
		for _, e := range g.attrs.row(int32(row)) { // sorted by name, as AddNode sorts
			e.name = names.id(e.name)
			if e.str >= 0 {
				e.str = strs.id(e.str)
			}
			sg.attrs.val = append(sg.attrs.val, e)
		}
		sg.attrs.off = append(sg.attrs.off, int32(len(sg.attrs.val)))
	}
	sg.attrNode = exact(sg.attrNode)
	sg.attrs = csr[attrEntry]{off: exact(sg.attrs.off), val: exact(sg.attrs.val)}
	sg.attrName, sg.attrStr = exact(names.tab), exact(strs.tab)
	sg.labelID, sg.attrNameID = tableIDs(sg.labelTab), tableIDs(sg.attrName)

	m := 0
	for _, v := range verts {
		for _, w := range g.Out(v) {
			if local[w] != 0 {
				m++
			}
		}
	}
	sg.out = csr[NodeID]{off: make([]int32, n+1), val: make([]NodeID, 0, m)}
	sg.cross = newBitset(m)
	es := make([]edge, 0, m)
	for i, v := range verts {
		lo := g.out.off[v]
		for j, w := range g.Out(v) {
			if lw := local[w] - 1; lw >= 0 {
				if g.cross.get(lo + int32(j)) {
					sg.cross.set(int32(len(sg.out.val)))
				}
				sg.out.val = append(sg.out.val, NodeID(lw))
				es = append(es, edge{u: NodeID(i), v: NodeID(lw)})
			}
		}
		sg.out.off[i+1] = int32(len(sg.out.val))
	}
	sg.derive(es)
	return sg
}

// renumbering maps ids into a string table src to ids into a new table
// listing the strings it is asked for in order of first request.
type renumbering struct {
	src []string
	to  []int32 // per src id: the new id plus one; 0 until requested
	tab []string
}

func newRenumbering(src []string) *renumbering {
	return &renumbering{src: src, to: make([]int32, len(src))}
}

// id returns the new id of src[old], appending it to tab if it is new.
func (r *renumbering) id(old int32) int32 {
	if r.to[old] == 0 {
		r.tab = append(r.tab, r.src[old])
		r.to[old] = int32(len(r.tab))
	}
	return r.to[old] - 1
}

// exact returns s, or a copy of it without spare capacity.
func exact[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	return append(make(S, 0, len(s)), s...)
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.labelOf) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) + len(g.out.val) }

// Label returns the primary label of v.
func (g *Graph) Label(v NodeID) string { return g.labelTab[g.labelOf[v]] }

// attrRow returns the explicit attributes of v, sorted by name; nil when
// it has none.
func (g *Graph) attrRow(v NodeID) []attrEntry {
	if !g.hasAttrs.get(int32(v)) {
		return nil
	}
	i, _ := slices.BinarySearch(g.attrNode, v)
	return g.attrs.row(int32(i))
}

// attrValue returns the value an entry holds.
func (g *Graph) attrValue(e attrEntry) Value {
	if e.str < 0 {
		return NumV(e.num)
	}
	return StrV(g.attrStr[e.str])
}

// Attr returns the named attribute of v. Explicit attributes take
// precedence; the primary label is exposed as attribute "label" (and as
// "tag" when no explicit tag attribute exists).
func (g *Graph) Attr(v NodeID, name string) (Value, bool) {
	if row := g.attrRow(v); row != nil {
		if id, ok := g.attrNameID[name]; ok {
			for _, e := range row {
				if e.name == id {
					return g.attrValue(e), true
				}
			}
		}
	}
	if name == "label" || name == "tag" {
		return StrV(g.Label(v)), true
	}
	return Value{}, false
}

// AttrKeys returns the names of v's explicit attributes, sorted.
func (g *Graph) AttrKeys(v NodeID) []string {
	row := g.attrRow(v)
	if len(row) == 0 {
		return nil
	}
	keys := make([]string, len(row))
	for i, e := range row {
		keys[i] = g.attrName[e.name]
	}
	return keys
}

// AttrMap returns a copy of v's explicit attributes, nil when it has
// none.
func (g *Graph) AttrMap(v NodeID) Attrs {
	row := g.attrRow(v)
	if len(row) == 0 {
		return nil
	}
	attrs := make(Attrs, len(row))
	for _, e := range row {
		attrs[g.attrName[e.name]] = g.attrValue(e)
	}
	return attrs
}

// Out returns the out-neighbors of v in id order; the graph must be
// frozen and callers must not modify the slice.
func (g *Graph) Out(v NodeID) []NodeID { return g.out.row(int32(v)) }

// In returns the in-neighbors of v in id order; the graph must be
// frozen and callers must not modify the slice.
func (g *Graph) In(v NodeID) []NodeID { return g.in.row(int32(v)) }

// edgeAt returns the position in the out payload of the first edge
// u -> v and whether there is one.
func (g *Graph) edgeAt(u, v NodeID) (int32, bool) {
	g.mustBeFrozen()
	i, ok := slices.BinarySearch(g.out.row(int32(u)), v)
	return g.out.off[u] + int32(i), ok
}

// EdgeKindOf reports whether u -> v is a tree or cross edge. It reports
// TreeEdge for non-existent edges; use HasEdge to test existence.
func (g *Graph) EdgeKindOf(u, v NodeID) EdgeKind {
	if i, ok := g.edgeAt(u, v); ok && g.cross.get(i) {
		return CrossEdge
	}
	return TreeEdge
}

// HasEdge reports whether the edge u -> v exists. The graph must be
// frozen (adjacency sorted).
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.edgeAt(u, v)
	return ok
}

// ByLabel returns the ids of all nodes carrying label, in id order. The
// graph must be frozen. Callers must not modify the slice.
func (g *Graph) ByLabel(label string) []NodeID {
	g.mustBeFrozen()
	l, ok := g.labelID[label]
	if !ok {
		return nil
	}
	return g.byLabel.row(l)
}

// Labels returns the distinct labels in the graph, sorted.
func (g *Graph) Labels() []string {
	g.mustBeFrozen()
	out := slices.Clone(g.labelTab)
	slices.Sort(out)
	return out
}

func (g *Graph) mustBeFrozen() {
	if !g.frozen {
		panic("graph: operation requires Freeze")
	}
}

// TreeParent returns the unique tree-edge parent of v, or -1. It is
// meaningful for document forests where each node has at most one
// incoming tree edge.
func (g *Graph) TreeParent(v NodeID) NodeID {
	for _, u := range g.In(v) {
		if g.EdgeKindOf(u, v) == TreeEdge {
			return u
		}
	}
	return -1
}

// TreeChildren appends to dst the tree-edge children of v.
func (g *Graph) TreeChildren(v NodeID, dst []NodeID) []NodeID {
	return g.outOfKind(v, TreeEdge, dst)
}

// CrossTargets appends to dst the cross-edge targets of v.
func (g *Graph) CrossTargets(v NodeID, dst []NodeID) []NodeID {
	return g.outOfKind(v, CrossEdge, dst)
}

func (g *Graph) outOfKind(v NodeID, k EdgeKind, dst []NodeID) []NodeID {
	lo := g.out.off[v]
	for i, w := range g.Out(v) {
		if g.cross.get(lo+int32(i)) == (k == CrossEdge) {
			dst = append(dst, w)
		}
	}
	return dst
}

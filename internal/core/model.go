// Package core defines the generalized tree pattern query (GTPQ) model
// of §2 — backbone/predicate/output nodes, PC/AD edges, attribute and
// structural predicates — together with the reference (naive) evaluator
// used as the correctness oracle and the fundamental-problem analyses of
// §3: satisfiability, containment, equivalence and minimization.
package core

import (
	"fmt"
	"strings"

	"gtpq/internal/logic"
)

// EdgeType is the relationship a query edge demands between the images
// of its endpoints.
type EdgeType uint8

const (
	// AD requires the child's image to be a proper descendant (non-empty
	// path) of the parent's image.
	AD EdgeType = iota
	// PC requires the child's image to be a direct child (single edge).
	PC
)

func (e EdgeType) String() string {
	if e == PC {
		return "PC"
	}
	return "AD"
}

// NodeKind distinguishes backbone nodes (whose variables may only be
// used positively, guaranteeing an image in every match) from predicate
// nodes (free to appear under ¬ and ∨).
type NodeKind uint8

const (
	// Backbone nodes always have an image in a match; output nodes are
	// drawn from them.
	Backbone NodeKind = iota
	// Predicate nodes serve as filters referenced by structural
	// predicates.
	Predicate
)

func (k NodeKind) String() string {
	if k == Predicate {
		return "predicate"
	}
	return "backbone"
}

// QNode is one node of a GTPQ. Nodes are identified by their index in
// Query.Nodes; that index doubles as the propositional variable id p_u.
type QNode struct {
	ID     int
	Name   string
	Kind   NodeKind
	Output bool
	Attr   AttrPred
	// Parent is -1 for the root; PEdge is the type of the edge from the
	// parent.
	Parent int
	PEdge  EdgeType
	// Children are in insertion order.
	Children []int
	// Struct is the structural predicate fs(u) over the ids of u's
	// predicate children; nil means true.
	Struct *logic.Formula
	// ViaRef marks the edge from the parent as crossing an ID/IDREF
	// reference in XML-derived graphs (a "dotted edge" in Fig 7). Tree
	// algorithms decompose the query here; graph algorithms ignore it.
	ViaRef bool
}

// Query is a GTPQ: a rooted tree of QNodes.
type Query struct {
	Nodes []*QNode
	Root  int
}

// NewQuery returns an empty query; add the root with AddRoot.
func NewQuery() *Query { return &Query{Root: -1} }

// AddRoot adds the root node (always backbone) and returns its id.
func (q *Query) AddRoot(name string, attr AttrPred) int {
	if q.Root != -1 {
		panic("core: query already has a root")
	}
	n := &QNode{ID: len(q.Nodes), Name: name, Kind: Backbone, Attr: attr, Parent: -1}
	q.Nodes = append(q.Nodes, n)
	q.Root = n.ID
	return n.ID
}

// AddNode adds a node under parent and returns its id.
func (q *Query) AddNode(name string, kind NodeKind, parent int, edge EdgeType, attr AttrPred) int {
	n := &QNode{
		ID:     len(q.Nodes),
		Name:   name,
		Kind:   kind,
		Attr:   attr,
		Parent: parent,
		PEdge:  edge,
	}
	q.Nodes = append(q.Nodes, n)
	q.Nodes[parent].Children = append(q.Nodes[parent].Children, n.ID)
	return n.ID
}

// SetViaRef marks the edge from u's parent as an ID/IDREF reference.
func (q *Query) SetViaRef(u int) { q.Nodes[u].ViaRef = true }

// SetStruct installs the structural predicate of node u.
func (q *Query) SetStruct(u int, f *logic.Formula) { q.Nodes[u].Struct = f }

// SetOutput marks u as an output node.
func (q *Query) SetOutput(u int) { q.Nodes[u].Output = true }

// Outputs returns the ids of the output nodes in ascending order.
func (q *Query) Outputs() []int {
	var out []int
	for _, n := range q.Nodes {
		if n.Output {
			out = append(out, n.ID)
		}
	}
	return out
}

// Size returns |Q| = the number of query nodes.
func (q *Query) Size() int { return len(q.Nodes) }

// Fs returns fs(u), never nil.
func (q *Query) Fs(u int) *logic.Formula {
	if f := q.Nodes[u].Struct; f != nil {
		return f
	}
	return logic.True()
}

// Fext returns the extended structural predicate fext(u): the
// conjunction of the backbone children's variables with fs(u).
func (q *Query) Fext(u int) *logic.Formula {
	parts := []*logic.Formula{}
	for _, c := range q.Nodes[u].Children {
		if q.Nodes[c].Kind == Backbone {
			parts = append(parts, logic.Var(c))
		}
	}
	parts = append(parts, q.Fs(u))
	return logic.And(parts...)
}

// IsConjunctive reports whether every structural predicate uses only
// conjunction (a conjunctive GTPQ — the traditional TPQ when all
// backbone nodes are output).
func (q *Query) IsConjunctive() bool {
	for _, n := range q.Nodes {
		if n.Struct != nil && !n.Struct.ConjunctiveOnly() {
			return false
		}
	}
	return true
}

// IsUnionConjunctive reports whether every structural predicate is
// negation-free.
func (q *Query) IsUnionConjunctive() bool {
	for _, n := range q.Nodes {
		if n.Struct != nil && !n.Struct.NegationFree() {
			return false
		}
	}
	return true
}

// Descendants returns the ids of all proper descendants of u in the
// query tree, preorder.
func (q *Query) Descendants(u int) []int {
	var out []int
	var rec func(int)
	rec = func(x int) {
		for _, c := range q.Nodes[x].Children {
			out = append(out, c)
			rec(c)
		}
	}
	rec(u)
	return out
}

// PostOrder returns all node ids in post-order (children before
// parents).
func (q *Query) PostOrder() []int {
	out := make([]int, 0, len(q.Nodes))
	var rec func(int)
	rec = func(u int) {
		for _, c := range q.Nodes[u].Children {
			rec(c)
		}
		out = append(out, u)
	}
	if q.Root >= 0 {
		rec(q.Root)
	}
	return out
}

// PreOrder returns all node ids in pre-order (parents before children).
func (q *Query) PreOrder() []int {
	out := make([]int, 0, len(q.Nodes))
	var rec func(int)
	rec = func(u int) {
		out = append(out, u)
		for _, c := range q.Nodes[u].Children {
			rec(c)
		}
	}
	if q.Root >= 0 {
		rec(q.Root)
	}
	return out
}

// IsAncestorOf reports whether a is a proper ancestor of b in the query
// tree.
func (q *Query) IsAncestorOf(a, b int) bool {
	for p := q.Nodes[b].Parent; p != -1; p = q.Nodes[p].Parent {
		if p == a {
			return true
		}
	}
	return false
}

// LCA returns the lowest common ancestor of a and b.
func (q *Query) LCA(a, b int) int {
	anc := map[int]bool{a: true}
	for p := q.Nodes[a].Parent; p != -1; p = q.Nodes[p].Parent {
		anc[p] = true
	}
	for x := b; x != -1; x = q.Nodes[x].Parent {
		if anc[x] {
			return x
		}
	}
	return -1
}

// Validate checks the structural well-formedness rules of Definition §2:
// the node set forms a tree rooted at Root; predicate nodes have no
// backbone children; output nodes are backbone; structural predicates
// mention only the node's own predicate children.
func (q *Query) Validate() error {
	if q.Root < 0 || q.Root >= len(q.Nodes) {
		return fmt.Errorf("core: query has no root")
	}
	if q.Nodes[q.Root].Kind != Backbone {
		return fmt.Errorf("core: root must be a backbone node")
	}
	seen := make([]bool, len(q.Nodes))
	order := q.PreOrder()
	for _, u := range order {
		if seen[u] {
			return fmt.Errorf("core: node %d reachable twice — not a tree", u)
		}
		seen[u] = true
	}
	if len(order) != len(q.Nodes) {
		return fmt.Errorf("core: %d of %d nodes unreachable from root", len(q.Nodes)-len(order), len(q.Nodes))
	}
	for _, n := range q.Nodes {
		if n.Kind == Predicate {
			for _, c := range n.Children {
				if q.Nodes[c].Kind == Backbone {
					return fmt.Errorf("core: predicate node %q has backbone child %q", n.Name, q.Nodes[c].Name)
				}
			}
		}
		if n.Output && n.Kind != Backbone {
			return fmt.Errorf("core: output node %q is not backbone", n.Name)
		}
		if n.Struct != nil {
			predKids := make(map[int]bool)
			for _, c := range n.Children {
				if q.Nodes[c].Kind == Predicate {
					predKids[c] = true
				}
			}
			for _, v := range n.Struct.Vars() {
				if !predKids[v] {
					return fmt.Errorf("core: fs(%q) mentions v%d which is not a predicate child", n.Name, v)
				}
			}
		}
	}
	return nil
}

// Clone returns a deep copy of q (formulas are shared — they are
// immutable).
func (q *Query) Clone() *Query {
	out := &Query{Root: q.Root, Nodes: make([]*QNode, len(q.Nodes))}
	for i, n := range q.Nodes {
		cp := *n
		cp.Children = append([]int(nil), n.Children...)
		cp.Attr = append(AttrPred(nil), n.Attr...)
		out.Nodes[i] = &cp
	}
	return out
}

// String renders the query tree for diagnostics.
func (q *Query) String() string {
	var b strings.Builder
	var rec func(u, depth int)
	rec = func(u, depth int) {
		n := q.Nodes[u]
		b.WriteString(strings.Repeat("  ", depth))
		if n.Parent != -1 {
			b.WriteString(n.PEdge.String())
			b.WriteByte(' ')
		}
		b.WriteString(n.Name)
		if n.Kind == Predicate {
			b.WriteString(" [pred]")
		}
		if n.Output {
			b.WriteString(" *")
		}
		if n.Attr != nil {
			fmt.Fprintf(&b, " {%s}", n.Attr)
		}
		if n.Struct != nil {
			fmt.Fprintf(&b, " fs=%s", n.Struct.Render(func(v int) string { return q.Nodes[v].Name }))
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	if q.Root >= 0 {
		rec(q.Root, 0)
	}
	return b.String()
}

// NameToID returns a map from node names to ids (names should be unique
// for DSL round-trips; duplicates keep the last).
func (q *Query) NameToID() map[string]int {
	m := make(map[string]int, len(q.Nodes))
	for _, n := range q.Nodes {
		m[n.Name] = n.ID
	}
	return m
}

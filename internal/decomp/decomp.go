// Package decomp implements the decompose-and-merge strategy the paper
// describes (Related work, Appendix C.2) for running conjunctive-only
// engines — TwigStack, Twig2Stack, TwigStackD, HGJoin — on full GTPQs:
// every structural predicate is expanded to DNF, the cross product of
// disjunct choices yields a set of conjunctive TPQs (exponentially many
// in the worst case — the overhead GTEA avoids), each is evaluated by
// the underlying engine, negated branches are applied as anti-joins
// against downward-match sets, and the per-subquery answers are merged
// by union.
package decomp

import (
	"sort"

	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/logic"
	"gtpq/internal/reach"
)

// ConjunctiveEngine evaluates conjunctive TPQs (all query nodes
// required) and projects onto output nodes.
type ConjunctiveEngine interface {
	Eval(q *core.Query) *core.Answer
}

// Wrapper evaluates GTPQs through a conjunctive engine.
type Wrapper struct {
	G *graph.Graph
	E ConjunctiveEngine
	// R answers reachability for the negation anti-joins.
	R reach.ContourIndex
	// Subqueries reports how many conjunctive TPQs the last Eval
	// generated (the decomposition blow-up).
	Subqueries int
}

// New builds a wrapper.
func New(g *graph.Graph, e ConjunctiveEngine, r reach.ContourIndex) *Wrapper {
	return &Wrapper{G: g, E: e, R: r}
}

// option is one DNF disjunct of a node's structural predicate: the
// positive and negated predicate children it demands.
type option struct {
	pos, neg []int
}

// nodeOptions expands fs(u) to DNF over u's predicate children.
// Children absent from a disjunct are unconstrained and omitted.
func nodeOptions(q *core.Query, u int) []option {
	f := q.Fs(u)
	terms := logic.ToDNF(f)
	opts := make([]option, 0, len(terms))
	for _, t := range terms {
		var o option
		for _, lit := range t {
			if lit.Negated {
				o.neg = append(o.neg, lit.Var)
			} else {
				o.pos = append(o.pos, lit.Var)
			}
		}
		sort.Ints(o.pos)
		sort.Ints(o.neg)
		opts = append(opts, o)
	}
	return opts
}

// Eval evaluates the GTPQ q.
func (w *Wrapper) Eval(q *core.Query) *core.Answer {
	w.Subqueries = 0
	ans := core.NewAnswer(q.Outputs())
	for _, sub := range w.expand(q) {
		res := w.evalSubquery(q, sub)
		for _, t := range res {
			ans.Add(t)
		}
	}
	ans.Canonicalize()
	return ans
}

// subquery is one conjunctive TPQ of the decomposition: the included
// query nodes (positive closure from the root) and, per included node,
// the negated children whose subtrees must not match below it.
type subquery struct {
	include map[int]bool
	negs    map[int][]int
}

// expand enumerates the disjunct choices of all included nodes,
// depth-first from the root; choosing a disjunct includes its positive
// children, whose own predicates then need choices too.
func (w *Wrapper) expand(q *core.Query) []subquery {
	var out []subquery
	var rec func(frontier []int, include map[int]bool, negs map[int][]int)
	rec = func(frontier []int, include map[int]bool, negs map[int][]int) {
		if len(frontier) == 0 {
			// Snapshot.
			inc := make(map[int]bool, len(include))
			for k := range include {
				inc[k] = true
			}
			ns := make(map[int][]int, len(negs))
			for k, v := range negs {
				ns[k] = append([]int(nil), v...)
			}
			out = append(out, subquery{include: inc, negs: ns})
			return
		}
		u := frontier[0]
		rest := frontier[1:]
		// Backbone children are always included.
		var backbone []int
		for _, c := range q.Nodes[u].Children {
			if q.Nodes[c].Kind == core.Backbone {
				backbone = append(backbone, c)
			}
		}
		for _, opt := range nodeOptions(q, u) {
			added := append([]int(nil), backbone...)
			added = append(added, opt.pos...)
			for _, c := range added {
				include[c] = true
			}
			negs[u] = opt.neg
			rec(append(append([]int(nil), rest...), added...), include, negs)
			delete(negs, u)
			for _, c := range added {
				delete(include, c)
			}
		}
	}
	rec([]int{q.Root}, map[int]bool{q.Root: true}, map[int][]int{})
	return out
}

// evalSubquery evaluates one conjunctive subquery: build the positive
// TPQ, run the engine with every included node observable, then filter
// by the negated branches via anti-joins on downward-match sets.
func (w *Wrapper) evalSubquery(q *core.Query, sub subquery) [][]graph.NodeID {
	w.Subqueries++
	// Build the positive conjunctive query over the included nodes. A
	// conjunctive engine requires every node regardless of kind, so all
	// nodes become backbone outputs — this changes nothing semantically
	// and makes every negation anchor observable in the result tuples.
	pos := core.NewQuery()
	remap := map[int]int{}
	var build func(u int)
	build = func(u int) {
		n := q.Nodes[u]
		var nu int
		if u == q.Root {
			nu = pos.AddRoot(n.Name, n.Attr)
		} else {
			nu = pos.AddNode(n.Name, core.Backbone, remap[n.Parent], n.PEdge, n.Attr)
			if n.ViaRef {
				pos.SetViaRef(nu)
			}
		}
		remap[u] = nu
		pos.SetOutput(nu)
		for _, c := range n.Children {
			if sub.include[c] {
				build(c)
			}
		}
	}
	build(q.Root)
	res := w.E.Eval(pos)

	// Negation filters: for each included node u with negated children,
	// the image of u must not reach (PC: be adjacent to) any downward
	// match of the negated subtree.
	type filter struct {
		pos int // tuple position of the anchor in res.Out
		pc  bool
		set map[graph.NodeID]bool
	}
	var filters []filter
	outPos := map[int]int{}
	for i, o := range res.Out {
		outPos[o] = i
	}
	for u, negKids := range sub.negs {
		for _, c := range negKids {
			set := w.downSet(q, c)
			filters = append(filters, filter{pos: outPos[remap[u]], pc: q.Nodes[c].PEdge == core.PC, set: set})
		}
	}
	// Apply filters and project onto the original output nodes.
	origOut := q.Outputs()
	keepPos := make([]int, len(origOut))
	for i, o := range origOut {
		keepPos[i] = outPos[remap[o]]
	}
	var rows [][]graph.NodeID
	var st reach.Stats
	for _, t := range res.Tuples {
		ok := true
		for _, f := range filters {
			v := t[f.pos]
			if f.pc {
				for _, wv := range w.G.Out(v) {
					if f.set[wv] {
						ok = false
						break
					}
				}
			} else {
				for wv := range f.set {
					if w.R.ReachesSt(v, wv, &st) {
						ok = false
						break
					}
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		row := make([]graph.NodeID, len(keepPos))
		for i, p := range keepPos {
			row[i] = t[p]
		}
		rows = append(rows, row)
	}
	return rows
}

// downSet computes the set of data nodes downward-matching the subtree
// rooted at c, by recursive decomposition: union over c's expansions of
// the root images of the positive part, minus negation filters.
func (w *Wrapper) downSet(q *core.Query, c int) map[graph.NodeID]bool {
	// Build the subtree of q rooted at c as a standalone query whose
	// root is backbone and output.
	subQ := core.NewQuery()
	remap := map[int]int{}
	var build func(u int)
	build = func(u int) {
		n := q.Nodes[u]
		var nu int
		if u == c {
			nu = subQ.AddRoot(n.Name, n.Attr)
		} else {
			kind := n.Kind
			nu = subQ.AddNode(n.Name, kind, remap[n.Parent], n.PEdge, n.Attr)
			if n.ViaRef {
				subQ.SetViaRef(nu)
			}
		}
		remap[u] = nu
		for _, ch := range n.Children {
			build(ch)
		}
	}
	build(c)
	for old, nu := range remap {
		if f := q.Nodes[old].Struct; f != nil {
			subQ.SetStruct(nu, f.Subst(func(v int) *logic.Formula {
				return logic.Var(remap[v])
			}))
		}
	}
	subQ.SetOutput(subQ.Root)

	set := map[graph.NodeID]bool{}
	inner := New(w.G, w.E, w.R)
	ans := inner.Eval(subQ)
	w.Subqueries += inner.Subqueries
	for _, t := range ans.Tuples {
		set[t[0]] = true
	}
	return set
}

package core

import (
	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// EvalNaive is the reference evaluator implementing the GTPQ semantics
// of §2 directly: downward matching sets are computed bottom-up over the
// query tree (v |= u iff v satisfies fa(u) and the induced valuation
// satisfies fext(u)), then matches of the backbone tree are enumerated
// by backtracking and projected onto the output nodes.
//
// It is deliberately simple — the oracle every engine is tested against
// — and uses the supplied reachability index (typically reach.TC) for AD
// edges. Intended for small graphs only.
func EvalNaive(g *graph.Graph, idx reach.ContourIndex, q *Query) *Answer {
	var st reach.Stats
	down := DownwardMatches(g, idx, q)
	ans := NewAnswer(q.Outputs())

	outPos := make(map[int]int, len(ans.Out)) // query node id -> tuple slot
	for i, u := range ans.Out {
		outPos[u] = i
	}
	// backboneChildren[u] lists the backbone children of u.
	backboneChildren := func(u int) []int {
		var out []int
		for _, c := range q.Nodes[u].Children {
			if q.Nodes[c].Kind == Backbone {
				out = append(out, c)
			}
		}
		return out
	}

	tuple := make([]graph.NodeID, len(ans.Out))
	var assign func(order []int, i int, images map[int]graph.NodeID)
	assign = func(order []int, i int, images map[int]graph.NodeID) {
		if i == len(order) {
			for u, pos := range outPos {
				tuple[pos] = images[u]
			}
			ans.Add(append([]graph.NodeID(nil), tuple...))
			return
		}
		u := order[i]
		parentImage, hasParent := images[q.Nodes[u].Parent]
		for _, v := range down[u] {
			if hasParent {
				if q.Nodes[u].PEdge == PC {
					if !g.HasEdge(parentImage, v) {
						continue
					}
				} else if !idx.ReachesSt(parentImage, v, &st) {
					continue
				}
			}
			images[u] = v
			assign(order, i+1, images)
		}
		delete(images, u)
	}

	// Backbone nodes in preorder so a node's parent is assigned first.
	var order []int
	var collect func(u int)
	collect = func(u int) {
		order = append(order, u)
		for _, c := range backboneChildren(u) {
			collect(c)
		}
	}
	collect(q.Root)
	assign(order, 0, make(map[int]graph.NodeID))
	ans.Canonicalize()
	return ans
}

// DownwardMatches computes, for every query node u, the set of data
// nodes v with v |= u (v downward-matches u): v satisfies fa(u) and the
// valuation it induces on u's children satisfies fext(u). Sets are
// returned in ascending node order.
func DownwardMatches(g *graph.Graph, idx reach.ContourIndex, q *Query) [][]graph.NodeID {
	var st reach.Stats
	down := make([][]graph.NodeID, len(q.Nodes))
	downSet := make([]map[graph.NodeID]bool, len(q.Nodes))
	for _, u := range q.PostOrder() {
		n := q.Nodes[u]
		cands := Candidates(g, n.Attr)
		fext := q.Fext(u)
		var keep []graph.NodeID
		set := make(map[graph.NodeID]bool)
		for _, v := range cands {
			val := func(c int) bool {
				if q.Nodes[c].PEdge == PC {
					for _, w := range g.Out(v) {
						if downSet[c][w] {
							return true
						}
					}
					return false
				}
				// AD: some downward match of c strictly reachable from v.
				for _, w := range down[c] {
					if idx.ReachesSt(v, w, &st) {
						return true
					}
				}
				return false
			}
			if fext.Eval(val) {
				keep = append(keep, v)
				set[v] = true
			}
		}
		down[u] = keep
		downSet[u] = set
	}
	return down
}

// Candidates returns the data nodes satisfying the attribute predicate,
// using the label index when the predicate is a plain label equality.
func Candidates(g *graph.Graph, p AttrPred) []graph.NodeID {
	if l, ok := p.LabelOnly(); ok {
		return g.ByLabel(l)
	}
	var out []graph.NodeID
	for v := 0; v < g.N(); v++ {
		if p.Matches(g, graph.NodeID(v)) {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

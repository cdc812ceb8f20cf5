package gtea

import (
	"slices"

	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// forest is the shrunk prime subtree (§4.3), indexed by query node.
// Removing the ancestors of the output LCA and every node with a single
// candidate can disconnect the prime subtree; the pieces (components)
// are independent because a singleton separator is fixed in every
// match, so per-component results combine by Cartesian product.
type forest struct {
	// roots lists the component roots in preorder.
	roots []int
	// kids[u] lists kept node u's children inside its component, in
	// query order.
	kids [][]int
	// outs[r] lists the output nodes of the component rooted at r, in
	// preorder; it is nil at every node that roots no component.
	outs [][]int
}

// shrink computes the shrunk prime subtree: the forest left of prime
// after removing proper ancestors of the output LCA and every node with
// |mat| = 1, plus the fixed images of the singleton output nodes
// (appended to every tuple). It narrows prime in place to the kept
// nodes.
func (ec *evalContext) shrink(q *core.Query, prime []bool, outs []int) (forest, map[int]graph.NodeID) {
	singles := make(map[int]graph.NodeID)
	kept := prime
	if !ec.opt.NoShrink {
		// LCA of all output nodes.
		lca := outs[0]
		for _, o := range outs[1:] {
			lca = q.LCA(lca, o)
		}
		for u := range kept {
			if q.IsAncestorOf(u, lca) || len(ec.mat[u]) == 1 {
				kept[u] = false
			}
		}
		for _, o := range outs {
			if !kept[o] {
				// Pruning can only leave singletons here when the answer
				// is non-empty, in which case the candidate appears in
				// every tuple.
				if len(ec.mat[o]) == 1 {
					singles[o] = ec.mat[o][0]
				} else {
					singles[o] = -1 // empty: no results at all
				}
			}
		}
	}
	// A kept node roots a component when its query parent is not kept.
	f := forest{kids: make([][]int, len(q.Nodes)), outs: make([][]int, len(q.Nodes))}
	root := make([]int, len(q.Nodes))
	for _, u := range q.PreOrder() {
		if !kept[u] {
			continue
		}
		if p := q.Nodes[u].Parent; p != -1 && kept[p] {
			f.kids[p] = append(f.kids[p], u)
			root[u] = root[p]
		} else {
			f.roots = append(f.roots, u)
			root[u] = u
		}
		if q.Nodes[u].Output {
			f.outs[root[u]] = append(f.outs[root[u]], u)
		}
	}
	return f, singles
}

// matchingGraph is the paper's maximal matching graph over the shrunk
// prime subtree: one row set per kept edge (u, c), indexed by the child
// c. Row i, at[c][off[c][i]:off[c][i+1]], lists ascending the positions
// in mat[c] of the matches of c linked below mat[u][i]. A PC row names a
// position once per data edge, as the graph keeps parallel edges.
type matchingGraph struct{ off, at [][]int32 }

// row returns the positions in mat[c] linked below the i-th candidate
// of c's parent.
func (mg *matchingGraph) row(c, i int) []int32 { return mg.at[c][mg.off[c][i]:mg.off[c][i+1]] }

// buildMatchingGraph materializes matches for every kept edge of the
// shrunk prime subtree, component by component in preorder. AD edges
// use per-source successor contours (the PruneUpward technique with a
// single-node set), which every backend provides; PC edges check
// adjacency directly. Candidates left without support on some edge
// simply end up with empty rows and contribute no results.
func (ec *evalContext) buildMatchingGraph(q *core.Query, f forest) *matchingGraph {
	mg := &matchingGraph{off: make([][]int32, len(q.Nodes)), at: make([][]int32, len(q.Nodes))}
	var nodes int64
	var build func(u int)
	build = func(u int) {
		nodes += int64(len(ec.mat[u]))
		kids := f.kids[u]
		if len(kids) == 0 || ec.err != nil {
			return
		}
		hasAD := false
		for _, c := range kids {
			mg.off[c] = make([]int32, 1, len(ec.mat[u])+1)
			hasAD = hasAD || q.Nodes[c].PEdge != core.PC
		}
		for _, v := range ec.mat[u] {
			if ec.tick() {
				return
			}
			ec.stat.EnumInput++
			var cs reach.SetContour
			if hasAD {
				// One successor-list merge per source node serves all
				// AD children (the PruneUpward technique of §4.3).
				cs = ec.h.SuccContour([]graph.NodeID{v}, &ec.rst)
			}
			for _, c := range kids {
				at := mg.at[c]
				if q.Nodes[c].PEdge == core.PC {
					for _, w := range ec.g.Out(v) {
						if ec.matSet[c].Has(w) {
							j, _ := slices.BinarySearch(ec.mat[c], w)
							at = append(at, int32(j))
						}
					}
				} else {
					for j, w := range ec.mat[c] {
						if cs.Probe(w, &ec.rst) {
							at = append(at, int32(j))
						}
					}
				}
				mg.at[c] = at
				mg.off[c] = append(mg.off[c], int32(len(at)))
			}
		}
		for _, c := range kids {
			build(c)
		}
	}
	for _, r := range f.roots {
		build(r)
	}
	if ec.err != nil {
		return mg
	}
	var edges int64
	for _, at := range mg.at {
		edges += int64(len(at))
	}
	ec.stat.Intermediate = 2 * (nodes + edges)
	return mg
}

// partials is one evaluation's enumeration state just before the
// cross-component combination step: the per-component distinct partial
// tuples, the output nodes each component covers, and the fixed images
// of the shrunk-away singleton outputs. newCursor turns it into the one
// cursor over the product, which EvalCursor returns and every
// materializing entry point collects. All slices are freshly allocated
// — nothing points into pooled evalContext scratch, so a partials value
// outlives its context's release.
type partials struct {
	singles  map[int]graph.NodeID
	perComp  [][][]graph.NodeID
	compOuts [][]int
	// empty marks an answer known to be empty (an output with no
	// surviving candidate, or a component with no partial tuples).
	empty bool
}

// collectPartials runs per-component result collection (Procedure 5
// with advance merging) and returns the partials; the cross-component
// product is left to newCursor.
func (ec *evalContext) collectPartials(q *core.Query, f forest, singles map[int]graph.NodeID, mg *matchingGraph) partials {
	pt := partials{singles: singles}
	for _, v := range singles {
		if v == -1 {
			pt.empty = true
			return pt // some output has no candidate: empty answer
		}
	}

	// memo[u][i] holds collect(u, i) once computed; a result with no
	// tuples is stored non-nil.
	memo := make([][][][]graph.NodeID, len(q.Nodes))
	var collect func(u, i int) [][]graph.NodeID
	collect = func(u, i int) [][]graph.NodeID {
		if ec.tick() {
			return nil
		}
		if memo[u] == nil {
			memo[u] = make([][][]graph.NodeID, len(ec.mat[u]))
		}
		if r := memo[u][i]; r != nil {
			return r
		}
		results := [][]graph.NodeID{nil}
		for _, c := range f.kids[u] {
			// Union of the results below each linked child match,
			// deduplicated before the product (the paper's advance
			// merging of partial results, line 7 of Procedure 5).
			var branch [][]graph.NodeID
			var seen tupleSet
			for _, j := range mg.row(c, i) {
				for _, t := range collect(c, int(j)) {
					if ec.tick() {
						return nil
					}
					if seen.add(t) {
						branch = append(branch, t)
					}
				}
			}
			if len(branch) == 0 {
				results = [][]graph.NodeID{}
				break
			}
			next := make([][]graph.NodeID, 0, len(results)*len(branch))
			for _, a := range results {
				for _, b := range branch {
					merged := make([]graph.NodeID, 0, len(a)+len(b))
					merged = append(merged, a...)
					merged = append(merged, b...)
					next = append(next, merged)
				}
			}
			results = next
		}
		if q.Nodes[u].Output {
			for k, t := range results {
				results[k] = append([]graph.NodeID{ec.mat[u][i]}, t...)
			}
		}
		memo[u][i] = results
		return results
	}

	// Per-component result sets (deduplicated across root candidates).
	for _, r := range f.roots {
		if len(f.outs[r]) == 0 {
			// A component with no outputs only constrains existence — and
			// existence is already guaranteed by pruning; skip it.
			continue
		}
		var seen tupleSet
		var all [][]graph.NodeID
		for i := range ec.mat[r] {
			if ec.err != nil {
				return pt
			}
			for _, t := range collect(r, i) {
				if seen.add(t) {
					all = append(all, t)
				}
			}
		}
		if len(all) == 0 {
			pt.empty = true
			return pt
		}
		pt.perComp = append(pt.perComp, all)
		pt.compOuts = append(pt.compOuts, f.outs[r])
	}
	return pt
}

func tupleKey(t []graph.NodeID) string {
	b := make([]byte, 0, len(t)*4)
	for _, v := range t {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// tupleSet deduplicates result tuples during enumeration. All tuples
// added to one set have the same width (they cover the same output
// nodes); widths up to two — the overwhelmingly common case — pack
// into a uint64 map key, so dedup costs no per-tuple allocation. Wider
// tuples fall back to string keys. The zero value is an empty set.
type tupleSet struct {
	narrow map[uint64]bool
	wide   map[string]bool
}

// add inserts t, reporting whether it was new.
func (s *tupleSet) add(t []graph.NodeID) bool {
	if len(t) <= 2 {
		var k uint64
		switch len(t) {
		case 1:
			k = uint64(uint32(t[0]))
		case 2:
			k = uint64(uint32(t[0]))<<32 | uint64(uint32(t[1]))
		}
		if s.narrow == nil {
			s.narrow = make(map[uint64]bool)
		}
		if s.narrow[k] {
			return false
		}
		s.narrow[k] = true
		return true
	}
	k := tupleKey(t)
	if s.wide == nil {
		s.wide = make(map[string]bool)
	}
	if s.wide[k] {
		return false
	}
	s.wide[k] = true
	return true
}

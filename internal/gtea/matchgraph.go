package gtea

import (
	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// component is one tree of the shrunk prime subtree forest. Removing the
// ancestors of the output LCA and every node with a single candidate can
// disconnect the prime subtree; the pieces are independent because a
// singleton separator is fixed in every match, so per-component results
// combine by Cartesian product (§4.3).
type component struct {
	root  int
	nodes []int // preorder within the component
}

// shrink computes the shrunk prime subtree: the components of the prime
// subtree after removing proper ancestors of the output LCA and every
// node with |mat| = 1, plus the fixed images of the singleton output
// nodes (appended to every tuple).
func (ec *evalContext) shrink(q *core.Query, prime map[int]bool, outs []int) ([]component, map[int]graph.NodeID) {
	singles := make(map[int]graph.NodeID)
	kept := make(map[int]bool)
	if ec.opt.NoShrink {
		for u := range prime {
			kept[u] = true
		}
	} else {
		// LCA of all output nodes.
		lca := outs[0]
		for _, o := range outs[1:] {
			lca = q.LCA(lca, o)
		}
		for u := range prime {
			if u != lca && q.IsAncestorOf(u, lca) {
				continue // strict ancestor of the LCA
			}
			if len(ec.mat[u]) == 1 {
				continue
			}
			kept[u] = true
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
	// Components: a kept node roots a component when its query parent is
	// not kept.
	var comps []component
	var build func(u int, c *component)
	build = func(u int, c *component) {
		c.nodes = append(c.nodes, u)
		for _, ch := range q.Nodes[u].Children {
			if kept[ch] {
				build(ch, c)
			}
		}
	}
	for _, u := range q.PreOrder() {
		if !kept[u] {
			continue
		}
		p := q.Nodes[u].Parent
		if p != -1 && kept[p] {
			continue
		}
		c := component{root: u}
		build(u, &c)
		comps = append(comps, c)
	}
	return comps, singles
}

// matchingGraph is the paper's maximal matching graph restricted to the
// shrunk prime subtree: candidates grouped by query node, with branch
// lists per query edge (branches[u][v][i] lists the matches of the i-th
// kept child of u linked below v).
type matchingGraph struct {
	// keptChildren[u] lists u's children inside the same component.
	keptChildren map[int][]int
	// branches[u][v] is parallel to keptChildren[u].
	branches map[int]map[graph.NodeID][][]graph.NodeID
}

// buildMatchingGraph materializes matches for every query edge of the
// shrunk prime subtree. AD edges use per-source successor contours (the
// PruneUpward technique with a single-node set), which every backend
// provides; PC edges check adjacency directly. Nodes left without
// support on some edge simply end up with empty branch lists and
// contribute no results.
func (ec *evalContext) buildMatchingGraph(q *core.Query, comps []component) *matchingGraph {
	mg := &matchingGraph{
		keptChildren: make(map[int][]int),
		branches:     make(map[int]map[graph.NodeID][][]graph.NodeID),
	}
	var nodes, edges int64
	for _, comp := range comps {
		inComp := make(map[int]bool, len(comp.nodes))
		for _, u := range comp.nodes {
			inComp[u] = true
		}
		for _, u := range comp.nodes {
			var kids []int
			for _, c := range q.Nodes[u].Children {
				if inComp[c] {
					kids = append(kids, c)
				}
			}
			mg.keptChildren[u] = kids
			perV := make(map[graph.NodeID][][]graph.NodeID, len(ec.mat[u]))
			mg.branches[u] = perV
			nodes += int64(len(ec.mat[u]))
			if len(kids) == 0 {
				continue
			}
			hasAD := false
			for _, c := range kids {
				if q.Nodes[c].PEdge != core.PC {
					hasAD = true
				}
			}
			for _, v := range ec.mat[u] {
				if ec.tick() {
					return mg
				}
				ec.stat.EnumInput++
				lists := make([][]graph.NodeID, len(kids))
				var cs reach.SetContour
				if hasAD {
					// One successor-list merge per source node serves all
					// AD children (the PruneUpward technique of §4.3).
					cs = ec.h.SuccContour([]graph.NodeID{v}, &ec.rst)
				}
				for i, c := range kids {
					if q.Nodes[c].PEdge == core.PC {
						for _, w := range ec.g.Out(v) {
							if ec.matSet[c].Has(w) {
								lists[i] = append(lists[i], w)
							}
						}
					} else {
						for _, w := range ec.mat[c] {
							if cs.Probe(w, &ec.rst) {
								lists[i] = append(lists[i], w)
							}
						}
					}
					edges += int64(len(lists[i]))
				}
				perV[v] = lists
			}
		}
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
func (ec *evalContext) collectPartials(q *core.Query, comps []component, singles map[int]graph.NodeID, mg *matchingGraph) partials {
	pt := partials{singles: singles}
	for _, v := range singles {
		if v == -1 {
			pt.empty = true
			return pt // some output has no candidate: empty answer
		}
	}

	// outsUnder[u]: output nodes inside u's component subtree, preorder.
	outsUnder := make(map[int][]int)
	var order func(u int) []int
	order = func(u int) []int {
		if got, ok := outsUnder[u]; ok {
			return got
		}
		var res []int
		if q.Nodes[u].Output {
			res = append(res, u)
		}
		for _, c := range mg.keptChildren[u] {
			res = append(res, order(c)...)
		}
		outsUnder[u] = res
		return res
	}

	type memoKey struct {
		u int
		v graph.NodeID
	}
	memo := make(map[memoKey][][]graph.NodeID)
	var collect func(u int, v graph.NodeID) [][]graph.NodeID
	collect = func(u int, v graph.NodeID) [][]graph.NodeID {
		if ec.tick() {
			return nil
		}
		key := memoKey{u, v}
		if r, ok := memo[key]; ok {
			return r
		}
		kids := mg.keptChildren[u]
		results := [][]graph.NodeID{nil}
		if len(kids) > 0 {
			lists := mg.branches[u][v]
			for i := range kids {
				// Union of the results below each linked child match,
				// deduplicated before the product (the paper's advance
				// merging of partial results, line 7 of Procedure 5).
				var branch [][]graph.NodeID
				var seen tupleSet
				for _, w := range lists[i] {
					for _, t := range collect(kids[i], w) {
						if ec.tick() {
							return nil
						}
						if seen.add(t) {
							branch = append(branch, t)
						}
					}
				}
				if len(branch) == 0 {
					results = nil
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
		}
		if q.Nodes[u].Output && results != nil {
			for i, t := range results {
				results[i] = append([]graph.NodeID{v}, t...)
			}
		}
		memo[key] = results
		return results
	}

	// Per-component result sets (deduplicated across root candidates).
	for _, comp := range comps {
		os := order(comp.root)
		if len(os) == 0 {
			// A component with no outputs only constrains existence — and
			// existence is already guaranteed by pruning; skip it.
			continue
		}
		var seen tupleSet
		var all [][]graph.NodeID
		for _, v := range ec.mat[comp.root] {
			if ec.err != nil {
				return pt
			}
			for _, t := range collect(comp.root, v) {
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
		pt.compOuts = append(pt.compOuts, os)
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

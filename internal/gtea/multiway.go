package gtea

import (
	"gtpq/internal/core"
	"gtpq/internal/graph"
)

// Worst-case-optimal pruning kernels. The paper's Procedures 6/7 prune
// a node's candidate set pairwise: one contour probe (or adjacency
// scan) per (candidate, adjacent pattern edge). When the extension
// formula is purely conjunctive, the same constraint system is a plain
// set intersection —
//
//	mat(u) ∩ ⋂_{AD child c} strictPred(mat(c)) ∩ ⋂_{PC child c} in(mat(c))
//
// — and materializing each right-hand set once (a graph BFS bounded by
// nodes+edges, or a one-hop neighbor sweep) and AND-ing bitsets bounds
// the per-node work by the sets' total size instead of candidates ×
// edges. The planner's kernel rule (plan.go) runs it at every
// conjunctive-only node unless the index is the transitive closure; the
// BFS runs on the evaluation graph itself, so it computes the exact
// same strict-reachability relation every index backend answers, on
// flat, sharded, and delta-extended bases alike.
//
// All scratch (two bitsets, one BFS stack) lives in the pooled
// evalContext, so the kernel allocates nothing in steady state.

// strictPredSet fills dst with every node that strictly reaches a
// member of members (path length ≥ 1; a member on a cycle reaches
// itself). Returns the number of BFS pops for work accounting.
func (ec *evalContext) strictPredSet(members []graph.NodeID, dst *core.Bitset) int {
	dst.Reset(ec.g.N())
	stack := ec.bfsStack[:0]
	for _, m := range members {
		for _, p := range ec.g.In(m) {
			if !dst.Has(p) {
				dst.Add(p)
				stack = append(stack, p)
			}
		}
	}
	visits := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visits++
		if ec.tick() {
			break
		}
		for _, p := range ec.g.In(v) {
			if !dst.Has(p) {
				dst.Add(p)
				stack = append(stack, p)
			}
		}
	}
	ec.bfsStack = stack[:0]
	return visits
}

// strictSuccSet is strictPredSet mirrored: every node strictly
// reachable from a member of members.
func (ec *evalContext) strictSuccSet(members []graph.NodeID, dst *core.Bitset) int {
	dst.Reset(ec.g.N())
	stack := ec.bfsStack[:0]
	for _, m := range members {
		for _, s := range ec.g.Out(m) {
			if !dst.Has(s) {
				dst.Add(s)
				stack = append(stack, s)
			}
		}
	}
	visits := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visits++
		if ec.tick() {
			break
		}
		for _, s := range ec.g.Out(v) {
			if !dst.Has(s) {
				dst.Add(s)
				stack = append(stack, s)
			}
		}
	}
	ec.bfsStack = stack[:0]
	return visits
}

// inNbrSet fills dst with the in-neighbors of members — the nodes with
// at least one edge into the set, i.e. the PC-parent candidates.
func (ec *evalContext) inNbrSet(members []graph.NodeID, dst *core.Bitset) {
	dst.Reset(ec.g.N())
	for _, m := range members {
		for _, p := range ec.g.In(m) {
			if !dst.Has(p) {
				dst.Add(p)
			}
		}
	}
}

// multiwayEligible reports whether u's downward pruning can run as a
// multiway intersection, and if so returns the constrained AD and PC
// children (fext's variables, deduplicated) in ec.adKids/ec.pcKids. A
// formula with negation or disjunction needs the paper's per-candidate
// valuation; conjunctions of child variables (the overwhelmingly common
// shape) do not.
func (ec *evalContext) multiwayEligible(q *core.Query, u int) (ad, pc []int, ok bool) {
	fext := q.Fext(u)
	if !fext.ConjunctiveOnly() {
		return nil, nil, false
	}
	n := q.Nodes[u]
	ad, pc = ec.adKids[:0], ec.pcKids[:0]
	for _, c := range fext.Vars() {
		seen := false
		for _, prev := range ad {
			if prev == c {
				seen = true
				break
			}
		}
		for _, prev := range pc {
			if prev == c {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		isChild := false
		for _, k := range n.Children {
			if k == c {
				isChild = true
				break
			}
		}
		if !isChild { // defensive: fext variables are always children
			return nil, nil, false
		}
		if q.Nodes[c].PEdge == core.PC {
			pc = append(pc, c)
		} else {
			ad = append(ad, c)
		}
	}
	ec.adKids, ec.pcKids = ad, pc
	return ad, pc, true
}

// pruneDownMultiway prunes mat(u) by intersecting it with every
// constrained child's predecessor (AD) or in-neighbor (PC) set.
// mat(u) stays sorted (in-place filter of a sorted slice).
func (ec *evalContext) pruneDownMultiway(u int, adKids, pcKids []int) {
	acc := &ec.accSet
	acc.Fill(ec.g.N(), ec.mat[u])
	for _, c := range pcKids {
		if ec.cancelled() {
			return
		}
		ec.inNbrSet(ec.mat[c], &ec.childSet)
		ec.stat.PruneInput += int64(len(ec.mat[c]))
		acc.And(&ec.childSet)
		if !acc.Any() {
			break
		}
	}
	for _, c := range adKids {
		if ec.cancelled() {
			return
		}
		visits := ec.strictPredSet(ec.mat[c], &ec.childSet)
		ec.stat.PruneInput += int64(len(ec.mat[c]) + visits)
		acc.And(&ec.childSet)
		if !acc.Any() {
			break
		}
	}
	if ec.cancelled() {
		return
	}
	keep := ec.mat[u][:0]
	for _, v := range ec.mat[u] {
		if acc.Has(v) {
			keep = append(keep, v)
		}
	}
	ec.stat.PruneInput += int64(len(ec.mat[u]))
	ec.mat[u] = keep
	ec.setMatSet(u, keep)
}

// pruneUpMultiway filters each AD prime child of u against one shared
// successor BFS of mat(u). Candidate order is preserved.
func (ec *evalContext) pruneUpMultiway(u int, adKids []int) {
	visits := ec.strictSuccSet(ec.mat[u], &ec.accSet)
	ec.stat.PruneInput += int64(len(ec.mat[u]) + visits)
	if ec.cancelled() {
		return
	}
	for _, c := range adKids {
		keep := ec.mat[c][:0]
		for _, v := range ec.mat[c] {
			if ec.accSet.Has(v) {
				keep = append(keep, v)
			}
		}
		ec.stat.PruneInput += int64(len(ec.mat[c]))
		ec.mat[c] = keep
		ec.setMatSet(c, keep)
	}
}

package gtea

import (
	"slices"

	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/logic"
	"gtpq/internal/reach"
)

// pruneDownward is Procedure 6: processing query nodes bottom-up, it
// removes every candidate of u whose induced valuation falsifies
// fext(u). AD-child valuations are answered holistically against the
// children's predecessor contours. Over the 3-hop index the
// chain-suffix walks are shared between candidates on the same chain
// (the chain kernel); other backends, and the NoContours ablation,
// answer one SetContour probe per candidate. Over the 3-hop index,
// positive valuations are inherited from larger to smaller chain
// positions either way (reachability is monotone along a chain).
// PC-child valuations are computed exactly from adjacency — §4.4's
// first strategy, required anyway under negation.
// Under the planner's kernel rule (plan.go), every internal node reads
// bitset contours instead (pruneDownSets); both are exact.
func (ec *evalContext) pruneDownward(q *core.Query) {
	for _, u := range q.PostOrder() {
		if ec.cancelled() {
			return
		}
		n := q.Nodes[u]
		if len(n.Children) == 0 {
			ec.setMatSet(u, ec.mat[u])
			continue
		}
		fext := q.Fext(u)
		if ec.multiway {
			ec.plan.Nodes[u].Kernel = KernelMultiway
			ec.pruneDownSets(q, u, fext)
			if ec.cancelled() {
				return
			}
			continue
		}
		adKids, pcKids := ec.splitKids(q, n.Children)

		// Predecessor summaries of the (already pruned) AD children:
		// chain contours for the chain kernel, SetContours otherwise.
		// Stored in child-id-indexed scratch; only adKids entries are
		// live.
		chain := ec.chainKernel()
		for _, c := range adKids {
			if chain {
				ec.cps[c] = ec.ch.MergeLists(ec.mat[c], false, &ec.rst)
			} else {
				ec.gps[c] = ec.contour(ec.mat[c], false)
			}
		}

		// Group candidates by chain, descending position, so positive
		// AD valuations can be inherited within a chain; without chain
		// structure everything is one bucket and nothing is inherited.
		buckets := ec.buckets(ec.mat[u], false)
		inherit := ec.ch != nil
		keep := ec.mat[u][:0]
		val := ec.valBuf
		for _, bucket := range buckets {
			for _, c := range n.Children {
				val[c] = false
			}
			var walker *reach.Walker
			if chain {
				walker = ec.ch.NewWalker(true, &ec.rst)
			}
			for _, v := range bucket {
				if ec.tick() {
					return
				}
				ec.stat.PruneInput++
				// PC children: exact adjacency, never inherited.
				for _, c := range pcKids {
					val[c] = false
					for _, w := range ec.g.Out(v) {
						if ec.matSet[c].Has(w) {
							val[c] = true
							break
						}
					}
				}
				// AD children.
				if chain {
					// Chain kernel: own-position check, one shared suffix
					// walk for all undecided children, ambiguity fallback.
					ambiguous := ec.ambiguous[:0]
					pending := 0
					for _, c := range adKids {
						if val[c] {
							continue
						}
						hit, amb := ec.ch.CheckOwn(v, ec.cps[c])
						if hit {
							val[c] = true
							continue
						}
						if amb {
							ambiguous = append(ambiguous, c)
						}
						pending++
					}
					ec.ambiguous = ambiguous
					if pending > 0 {
						walker.Walk(v, func(cid, pos int32) {
							for _, c := range adKids {
								if !val[c] && ec.cps[c].Match(cid, pos) {
									val[c] = true
								}
							}
						})
					}
					for _, c := range ambiguous {
						if !val[c] && ec.ch.ResolveAmbiguous(v, ec.cps[c], &ec.rst) {
							val[c] = true
						}
					}
				} else {
					// One probe per (candidate, child contour); positive
					// values inherited along the chain when there is one.
					for _, c := range adKids {
						if !inherit || !val[c] {
							val[c] = ec.gps[c].Probe(v, &ec.rst)
						}
					}
				}
				if fext.Eval(func(c int) bool { return val[c] }) {
					keep = append(keep, v)
				}
			}
		}
		slices.Sort(keep)
		ec.mat[u] = keep
		ec.setMatSet(u, keep)
	}
}

// pruneUpward is Procedure 7 restricted to the prime subtree: top-down,
// every candidate of a child must be reachable from (PC: adjacent to)
// the parent's surviving candidates. Unlike the pseudocode we do not
// skip parents with a single candidate — the shrunk-subtree
// decomposition requires children of singletons to be upward-clean too.
// Under the kernel rule, every AD child probes the parent's bitset
// contour.
func (ec *evalContext) pruneUpward(q *core.Query, prime []bool) {
	for _, u := range q.PreOrder() {
		if ec.cancelled() {
			return
		}
		if !prime[u] || len(ec.mat[u]) == 0 {
			continue
		}
		var cs *reach.Contour    // chain successor contour of mat[u], lazy
		var gcs reach.SetContour // its SetContour off the chain kernel, lazy
		for _, c := range q.Nodes[u].Children {
			if !prime[c] {
				continue
			}
			if q.Nodes[c].PEdge == core.PC {
				keep := ec.mat[c][:0]
				for _, v := range ec.mat[c] {
					if ec.tick() {
						return
					}
					ec.stat.PruneInput++
					for _, w := range ec.g.In(v) {
						if ec.matSet[u].Has(w) {
							keep = append(keep, v)
							break
						}
					}
				}
				ec.mat[c] = keep
				ec.setMatSet(c, keep)
				continue
			}
			if ec.multiway || !ec.chainKernel() {
				// Holistic probe of every child candidate against the
				// parent's successor contour. The kernel rule takes the
				// bitset of everything mat[u] strictly reaches, on every
				// AD edge: the upward round carries no negation.
				if gcs == nil {
					if ec.multiway {
						gcs = ec.connected(ec.mat[u], true, false, &ec.contours[u])
					} else {
						gcs = ec.contour(ec.mat[u], true)
					}
				}
				keep := ec.mat[c][:0]
				for _, v := range ec.mat[c] {
					if ec.tick() {
						return
					}
					ec.stat.PruneInput++
					if gcs.Probe(v, &ec.rst) {
						keep = append(keep, v)
					}
				}
				ec.mat[c] = keep
				ec.setMatSet(c, keep)
				continue
			}
			if cs == nil {
				cs = ec.ch.MergeLists(ec.mat[u], true, &ec.rst)
			}
			// Ascending order per chain: once one candidate is reached,
			// all larger ones are too.
			buckets := ec.buckets(ec.mat[c], true)
			keep := ec.mat[c][:0]
			for _, bucket := range buckets {
				walker := ec.ch.NewWalker(false, &ec.rst)
				reached := false
				for _, v := range bucket {
					if ec.tick() {
						return
					}
					ec.stat.PruneInput++
					if reached {
						keep = append(keep, v)
						continue
					}
					hit, amb := ec.ch.CheckOwn(v, cs)
					got := hit
					walker.Walk(v, func(cid, pos int32) {
						if !got && cs.Match(cid, pos) {
							got = true
						}
					})
					if !got && amb {
						got = ec.ch.ResolveAmbiguous(v, cs, &ec.rst)
					}
					if got {
						reached = true
						keep = append(keep, v)
					}
				}
			}
			slices.Sort(keep)
			ec.mat[c] = keep
			ec.setMatSet(c, keep)
		}
	}
}

// chainKernel reports whether AD valuations run Procedures 6/7's
// chain kernel: over the 3-hop index, unless the NoContours ablation
// forgoes merged contours.
func (ec *evalContext) chainKernel() bool { return ec.ch != nil && !ec.opt.NoContours }

// contour summarizes S for SetContour probes in direction down (see
// ContourIndex.SuccContour and PredContour): the backend's merged
// contour, or a pairwiseContour under the NoContours ablation.
func (ec *evalContext) contour(S []graph.NodeID, down bool) reach.SetContour {
	switch {
	case ec.opt.NoContours:
		return pairwiseContour{ec.h, S, down}
	case down:
		return ec.h.SuccContour(S, &ec.rst)
	default:
		return ec.h.PredContour(S, &ec.rst)
	}
}

// pairwiseContour is the NoContours ablation's SetContour: it merges
// nothing, and a probe asks ReachesSt once per member of S, in order,
// until one answers.
type pairwiseContour struct {
	h    reach.ContourIndex
	S    []graph.NodeID
	down bool
}

func (p pairwiseContour) Probe(v graph.NodeID, st *reach.Stats) bool {
	for _, w := range p.S {
		if p.down && p.h.ReachesSt(w, v, st) || !p.down && p.h.ReachesSt(v, w, st) {
			return true
		}
	}
	return false
}

// bitsetContour is the kernel rule's SetContour: the set of nodes
// strictly connected to S in one direction, materialized once by
// connected, so a probe is a bit test and costs no index lookup.
type bitsetContour struct{ *core.Bitset }

func (b bitsetContour) Probe(v graph.NodeID, _ *reach.Stats) bool { return b.Has(v) }

// connected fills dst with every node strictly connected to S: the nodes
// S reaches (down) or that reach S (!down) by a path of length ≥ 1, so
// a member is included only through such a path (a cycle, or another
// member). With oneHop only S's direct neighbors are kept (a PC edge). The search
// runs on the evaluation graph itself, so it answers the same relation
// as every index backend, flat, sharded or under a delta overlay. It
// charges len(S) plus its search pops to PruneInput.
func (ec *evalContext) connected(S []graph.NodeID, down, oneHop bool, dst *core.Bitset) bitsetContour {
	nbrs := ec.g.In
	if down {
		nbrs = ec.g.Out
	}
	dst.Reset(ec.g.N())
	stack := ec.bfsStack[:0]
	for _, m := range S {
		for _, w := range nbrs(m) {
			if !dst.Has(w) {
				dst.Add(w)
				if !oneHop {
					stack = append(stack, w)
				}
			}
		}
	}
	pops := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pops++
		if ec.tick() {
			break
		}
		for _, w := range nbrs(v) {
			if !dst.Has(w) {
				dst.Add(w)
				stack = append(stack, w)
			}
		}
	}
	ec.bfsStack = stack[:0]
	ec.stat.PruneInput += int64(len(S) + pops)
	return bitsetContour{dst}
}

// pruneDownSets is the kernel rule's Procedure 6 step at an internal
// node: each variable of fext gets the bitset contour of its child's
// candidates (their in-neighbors for a PC child, their strict
// predecessors for an AD child), and a candidate survives iff fext
// holds under the valuation its membership in those sets induces. A
// variable-free False keeps none.
func (ec *evalContext) pruneDownSets(q *core.Query, u int, fext *logic.Formula) {
	for _, c := range fext.Vars() {
		if ec.cancelled() {
			return
		}
		ec.connected(ec.mat[c], false, q.Nodes[c].PEdge == core.PC, &ec.contours[c])
	}
	if ec.cancelled() {
		return
	}
	keep := ec.mat[u][:0]
	for _, v := range ec.mat[u] {
		if fext.Eval(func(c int) bool { return ec.contours[c].Has(v) }) {
			keep = append(keep, v)
		}
	}
	ec.stat.PruneInput += int64(len(ec.mat[u]))
	ec.mat[u] = keep
	ec.setMatSet(u, keep)
}

// splitKids splits the child ids cs by their parent edge into ec.adKids
// and ec.pcKids, in order.
func (ec *evalContext) splitKids(q *core.Query, cs []int) (ad, pc []int) {
	ad, pc = ec.adKids[:0], ec.pcKids[:0]
	for _, c := range cs {
		if q.Nodes[c].PEdge == core.PC {
			pc = append(pc, c)
		} else {
			ad = append(ad, c)
		}
	}
	ec.adKids, ec.pcKids = ad, pc
	return ad, pc
}

// primeSubtree returns, indexed by query node, the minimum subtree
// containing the root and every output node with more than one
// candidate.
func (ec *evalContext) primeSubtree(q *core.Query, outs []int) []bool {
	prime := make([]bool, len(q.Nodes))
	prime[q.Root] = true
	for _, o := range outs {
		if len(ec.mat[o]) <= 1 && !ec.opt.NoShrink {
			continue
		}
		for x := o; x != -1; x = q.Nodes[x].Parent {
			if prime[x] {
				break
			}
			prime[x] = true
		}
	}
	return prime
}

// chainPos caches one candidate's 3-hop chain position for bucket
// sorting, so Position is asked once per node instead of O(log n)
// times inside the comparator.
type chainPos struct {
	v        graph.NodeID
	cid, pos int32
}

// buckets groups nodes for chain-shared pruning: per 3-hop chain,
// sorted by position (ascending or descending), when the index has
// chain structure; one unsorted bucket otherwise. The returned slices
// live in reused context scratch and are valid until the next buckets
// call.
func (ec *evalContext) buckets(nodes []graph.NodeID, ascending bool) [][]graph.NodeID {
	out := ec.bucketOut[:0]
	if ec.ch == nil {
		out = append(out, nodes)
		ec.bucketOut = out
		return out
	}
	ps := ec.bucketPos[:0]
	for _, v := range nodes {
		cid, pos := ec.ch.Position(v)
		ps = append(ps, chainPos{v: v, cid: cid, pos: pos})
	}
	ec.bucketPos = ps
	slices.SortFunc(ps, func(a, b chainPos) int {
		if a.cid != b.cid {
			if a.cid < b.cid {
				return -1
			}
			return 1
		}
		x, y := a, b
		if !ascending {
			x, y = b, a
		}
		if x.pos != y.pos {
			if x.pos < y.pos {
				return -1
			}
			return 1
		}
		if x.v != y.v {
			if x.v < y.v {
				return -1
			}
			return 1
		}
		return 0
	})
	buf := ec.bucketBuf[:0]
	for i := 0; i < len(ps); {
		j := i
		start := len(buf)
		for j < len(ps) && ps[j].cid == ps[i].cid {
			buf = append(buf, ps[j].v)
			j++
		}
		out = append(out, buf[start:len(buf):len(buf)])
		i = j
	}
	ec.bucketBuf = buf
	ec.bucketOut = out
	return out
}

// setMatSet rebuilds u's membership bitset from xs.
func (ec *evalContext) setMatSet(u int, xs []graph.NodeID) {
	ec.matSet[u].Fill(ec.g.N(), xs)
}

package reach

import "gtpq/internal/graph"

// Contour is the merged complete predecessor (or successor) list of a
// node set S (Procedure 2 / MergeSuccLists): one extreme position per
// chain — the largest position reaching S for a predecessor contour, the
// smallest position reachable from S for a successor contour — plus the
// SCC membership of S itself, needed to answer *strict* reachability
// when the probe node can sit inside S.
type Contour struct {
	pred    bool            // predecessor contour (vals hold maxima)
	vals    map[int32]int32 // cid -> extreme position
	members map[int32]bool  // SCCs containing an element of S
}

// Size returns the number of chain entries in the contour (the paper's
// contour-size measure; bounded by the number of chains).
func (c *Contour) Size() int { return len(c.vals) }

// MergePredLists computes the predecessor contour of S following
// Procedure 2: every element's complete predecessor list is folded in,
// and the per-chain `visited` high-water mark guarantees no Lin list is
// examined twice. Work is charged to st.
func (h *ThreeHop) MergePredLists(S []graph.NodeID, st *Stats) *Contour {
	c := &Contour{
		pred:    true,
		vals:    make(map[int32]int32),
		members: make(map[int32]bool, len(S)),
	}
	visited := make(map[int32]int32) // cid -> largest position whose prefix has been fully scanned
	n := int64(0)
	for _, v := range S {
		s := h.scc.Comp[v]
		c.members[s] = true
		cid, pos := h.locate(s)
		if cur, ok := c.vals[cid]; !ok || pos > cur {
			c.vals[cid] = pos
		}
		// Walk the chain prefix ending at pos downward, stopping at the
		// already-visited region.
		limit, seen := visited[cid]
		start := h.chainOff[cid]
		if seen {
			start = limit + 1
		}
		for t := h.lin.prevRow(pos, start); t >= start; t = h.lin.prevRow(t-1, start) {
			for b, i, p := h.lin.row(t), 0, int32(-1); i < len(b); {
				p, i = nextGap(b, i, p)
				n++
				pc := h.chainAt[p]
				if cur, ok := c.vals[pc]; !ok || p > cur {
					c.vals[pc] = p
				}
			}
		}
		if !seen || pos > limit {
			visited[cid] = pos
		}
	}
	st.Lookups += n
	return c
}

// MergeSuccLists computes the successor contour of S (per-chain minima
// over complete successor lists), the dual of MergePredLists.
func (h *ThreeHop) MergeSuccLists(S []graph.NodeID, st *Stats) *Contour {
	c := &Contour{
		vals:    make(map[int32]int32),
		members: make(map[int32]bool, len(S)),
	}
	visited := make(map[int32]int32) // cid -> smallest position whose suffix has been fully scanned
	n := int64(0)
	for _, v := range S {
		s := h.scc.Comp[v]
		c.members[s] = true
		cid, pos := h.locate(s)
		if cur, ok := c.vals[cid]; !ok || pos < cur {
			c.vals[cid] = pos
		}
		limit, seen := visited[cid]
		end := h.chainOff[cid+1]
		if seen {
			end = limit
		}
		for t := h.lout.nextRow(pos, end); t < end; t = h.lout.nextRow(t+1, end) {
			for b, i, p := h.lout.row(t), 0, int32(-1); i < len(b); {
				p, i = nextGap(b, i, p)
				n++
				pc := h.chainAt[p]
				if cur, ok := c.vals[pc]; !ok || p < cur {
					c.vals[pc] = p
				}
			}
		}
		if !seen || pos < limit {
			visited[cid] = pos
		}
	}
	st.Lookups += n
	return c
}

// threeHopPred adapts a chain predecessor contour to the backend-opaque
// PredContour probe interface.
type threeHopPred struct {
	h *ThreeHop
	c *Contour
}

func (p threeHopPred) ReachedFrom(v graph.NodeID, st *Stats) bool {
	return p.h.ReachesContour(v, p.c, st)
}
func (p threeHopPred) Size() int { return p.c.Size() }

// threeHopSucc is the successor dual.
type threeHopSucc struct {
	h *ThreeHop
	c *Contour
}

func (s threeHopSucc) ReachesNode(v graph.NodeID, st *Stats) bool {
	return s.h.ContourReaches(s.c, v, st)
}
func (s threeHopSucc) Size() int { return s.c.Size() }

// PredContour summarizes S for generic "v reaches S?" probes.
func (h *ThreeHop) PredContour(S []graph.NodeID, st *Stats) PredContour {
	return threeHopPred{h: h, c: h.MergePredLists(S, st)}
}

// SuccContour summarizes S for generic "S reaches v?" probes.
func (h *ThreeHop) SuccContour(S []graph.NodeID, st *Stats) SuccContour {
	return threeHopSucc{h: h, c: h.MergeSuccLists(S, st)}
}

// ReachesContour reports whether v strictly reaches some element of the
// set summarized by the predecessor contour cp (Proposition 7, first
// half). The rare ambiguous case — v itself is in S, v's SCC is trivial,
// and the only inclusive witness is v's own position — falls back to
// checking v's DAG out-neighbors inclusively.
func (h *ThreeHop) ReachesContour(v graph.NodeID, cp *Contour, st *Stats) bool {
	st.Queries++
	hit, ambiguous := h.CheckOwn(v, cp)
	if hit || h.outMatches(h.scc.Comp[v], cp, st) {
		return true
	}
	return ambiguous && h.ResolveAmbiguous(v, cp, st)
}

// ContourReaches reports whether some element of the set summarized by
// the successor contour cs strictly reaches v (Proposition 7, second
// half).
func (h *ThreeHop) ContourReaches(cs *Contour, v graph.NodeID, st *Stats) bool {
	st.Queries++
	hit, ambiguous := h.CheckOwnSucc(cs, v)
	if hit || h.inMatches(cs, h.scc.Comp[v], st) {
		return true
	}
	return ambiguous && h.ResolveAmbiguousSucc(cs, v, st)
}

// outMatches reports whether some entry of s's complete successor list
// (the Lout lists of its chain suffix) matches the predecessor contour.
func (h *ThreeHop) outMatches(s int32, cp *Contour, st *Stats) bool {
	n := int64(0)
	end := h.chainOff[h.chainAt[s]+1]
	for t := h.lout.nextRow(s, end); t < end; t = h.lout.nextRow(t+1, end) {
		for b, i, p := h.lout.row(t), 0, int32(-1); i < len(b); {
			p, i = nextGap(b, i, p)
			n++
			if cp.MatchPred(h.chainAt[p], p) {
				st.Lookups += n
				return true
			}
		}
	}
	st.Lookups += n
	return false
}

// inMatches is outMatches' dual over s's complete predecessor list.
func (h *ThreeHop) inMatches(cs *Contour, s int32, st *Stats) bool {
	n := int64(0)
	start := h.chainOff[h.chainAt[s]]
	for t := h.lin.prevRow(s, start); t >= start; t = h.lin.prevRow(t-1, start) {
		for b, i, p := h.lin.row(t), 0, int32(-1); i < len(b); {
			p, i = nextGap(b, i, p)
			n++
			if cs.MatchSucc(h.chainAt[p], p) {
				st.Lookups += n
				return true
			}
		}
	}
	st.Lookups += n
	return false
}

// inclusiveReachesPred reports whether SCC s inclusively reaches the set
// behind the predecessor contour.
func (h *ThreeHop) inclusiveReachesPred(s int32, cp *Contour, st *Stats) bool {
	return cp.MatchPred(h.locate(s)) || h.outMatches(s, cp, st)
}

func (h *ThreeHop) inclusiveSuccReaches(cs *Contour, s int32, st *Stats) bool {
	return cs.MatchSucc(h.locate(s)) || h.inMatches(cs, s, st)
}

// OutWalker streams the complete-successor-list entries of candidates
// processed in descending position order on each chain, visiting every
// Lout element at most once per walker lifetime (the inner loop of
// Procedure 6). Callers create one walker per query node being pruned;
// a walker is single-use state for one evaluation and charges its
// lookups to the sink it was created with.
type OutWalker struct {
	h       *ThreeHop
	st      *Stats
	visited map[int32]int32 // cid -> smallest position whose suffix was walked
}

// NewOutWalker returns a walker over h charging st.
func (h *ThreeHop) NewOutWalker(st *Stats) ChainWalker {
	return &OutWalker{h: h, st: st, visited: make(map[int32]int32)}
}

// Walk invokes f for every Lout entry in the not-yet-visited part of the
// chain suffix starting at v's position. Entries already walked for a
// larger candidate on the same chain are skipped, matching the
// `visited` bookkeeping of Procedure 6.
func (w *OutWalker) Walk(v graph.NodeID, f func(cid, pos int32)) {
	h := w.h
	s := h.scc.Comp[v]
	cid, pos := h.locate(s)
	limit, seen := w.visited[cid]
	end := h.chainOff[cid+1]
	if seen {
		end = limit
	}
	// Recorded before the walk, so that no more than the loop's own
	// state is live across the calls of f: the extra spills cost arXiv
	// walks ~10%.
	if !seen || pos < limit {
		w.visited[cid] = pos
	}
	n := int64(0)
	for t := h.lout.nextRow(pos, end); t < end; t = h.lout.nextRow(t+1, end) {
		for b, i, p := h.lout.row(t), 0, int32(-1); i < len(b); {
			p, i = nextGap(b, i, p)
			n++
			f(h.chainAt[p], p)
		}
	}
	w.st.Lookups += n
}

// InWalker is the dual used by Procedure 7: candidates are processed in
// ascending position order per chain, and Lin entries of the chain
// prefix are visited at most once.
type InWalker struct {
	h       *ThreeHop
	st      *Stats
	visited map[int32]int32 // cid -> largest position whose prefix was walked
}

// NewInWalker returns a walker over h charging st.
func (h *ThreeHop) NewInWalker(st *Stats) ChainWalker {
	return &InWalker{h: h, st: st, visited: make(map[int32]int32)}
}

// Walk invokes f for every Lin entry in the not-yet-visited part of the
// chain prefix ending at v's position.
func (w *InWalker) Walk(v graph.NodeID, f func(cid, pos int32)) {
	h := w.h
	s := h.scc.Comp[v]
	cid, pos := h.locate(s)
	limit, seen := w.visited[cid]
	start := h.chainOff[cid]
	if seen {
		start = limit + 1
	}
	if !seen || pos > limit { // before the walk, as in OutWalker.Walk
		w.visited[cid] = pos
	}
	n := int64(0)
	for t := h.lin.prevRow(pos, start); t >= start; t = h.lin.prevRow(t-1, start) {
		for b, i, p := h.lin.row(t), 0, int32(-1); i < len(b); {
			p, i = nextGap(b, i, p)
			n++
			f(h.chainAt[p], p)
		}
	}
	w.st.Lookups += n
}

// Position returns v's chain id and position (engines group candidate
// sets by chain with these and order each group by position).
func (h *ThreeHop) Position(v graph.NodeID) (cid, pos int32) {
	return h.locate(h.scc.Comp[v])
}

// CheckOwn reports the relationship of v's own chain position against a
// predecessor contour: reached (definitely strict), ambiguous (witness
// is v's own position and v ∈ S), or nothing.
func (h *ThreeHop) CheckOwn(v graph.NodeID, cp *Contour) (hit, ambiguous bool) {
	s := h.scc.Comp[v]
	if cp.members[s] && h.scc.Nontrivial(s) {
		return true, false
	}
	cid, pos := h.locate(s)
	if m, ok := cp.vals[cid]; ok {
		switch {
		case m > pos:
			return true, false
		case m == pos:
			if !cp.members[s] {
				return true, false
			}
			return false, true
		}
	}
	return false, false
}

// ResolveAmbiguous answers the rare own-position ambiguity by probing
// v's DAG out-neighbors inclusively against the predecessor contour.
// v's SCC must be trivial, as it is whenever CheckOwn reports ambiguous.
func (h *ThreeHop) ResolveAmbiguous(v graph.NodeID, cp *Contour, st *Stats) bool {
	return h.anyNeighborSCC(h.g.Out(v), func(s int32) bool { return h.inclusiveReachesPred(s, cp, st) })
}

// CheckOwnSucc is CheckOwn's dual for successor contours (upward
// pruning).
func (h *ThreeHop) CheckOwnSucc(cs *Contour, v graph.NodeID) (hit, ambiguous bool) {
	s := h.scc.Comp[v]
	if cs.members[s] && h.scc.Nontrivial(s) {
		return true, false
	}
	cid, pos := h.locate(s)
	if m, ok := cs.vals[cid]; ok {
		switch {
		case m < pos:
			return true, false
		case m == pos:
			if !cs.members[s] {
				return true, false
			}
			return false, true
		}
	}
	return false, false
}

// ResolveAmbiguousSucc resolves the dual ambiguity through v's DAG
// in-neighbors; v's SCC must be trivial.
func (h *ThreeHop) ResolveAmbiguousSucc(cs *Contour, v graph.NodeID, st *Stats) bool {
	return h.anyNeighborSCC(h.g.In(v), func(s int32) bool { return h.inclusiveSuccReaches(cs, s, st) })
}

// anyNeighborSCC calls probe on the SCCs of nbrs, each once and in order
// of first occurrence, until probe returns true. For the out- (in-)
// neighbors of a node v whose SCC is trivial, that is the condensation's
// DAG successor (predecessor) row of v's SCC in the same order, so the
// index needs no DAG at query time. Clearing the set again walks nbrs,
// not the SCC count: XMark's people node has 8,000 children.
func (h *ThreeHop) anyNeighborSCC(nbrs []graph.NodeID, probe func(s int32) bool) bool {
	seen, _ := h.seen.Get().(*sccSet)
	if seen == nil {
		seen = &sccSet{bits: make([]uint64, (len(h.chainAt)+63)/64)}
	}
	hit := false
	for _, w := range nbrs {
		if s := h.scc.Comp[w]; seen.add(s) && probe(s) {
			hit = true
			break
		}
	}
	for _, w := range nbrs {
		seen.bits[h.scc.Comp[w]>>6] = 0 // every set bit lies in one of these words
	}
	h.seen.Put(seen)
	return hit
}

// sccSet is a set of SCC ids, one bit each.
type sccSet struct{ bits []uint64 }

// add inserts s and reports whether it was absent.
func (b *sccSet) add(s int32) bool {
	w, m := s>>6, uint64(1)<<uint(s&63)
	if b.bits[w]&m != 0 {
		return false
	}
	b.bits[w] |= m
	return true
}

// MatchPred reports whether a single complete-successor-list entry, at
// position pos on chain cid, matches the predecessor contour.
func (c *Contour) MatchPred(cid, pos int32) bool {
	m, ok := c.vals[cid]
	return ok && m >= pos
}

// MatchSucc reports whether a single complete-predecessor-list entry, at
// position pos on chain cid, matches the successor contour.
func (c *Contour) MatchSucc(cid, pos int32) bool {
	m, ok := c.vals[cid]
	return ok && m <= pos
}

package reach

import "gtpq/internal/graph"

// The query side reads the chains in one of two directions, each named
// by a down flag: down reads the successor lists (Lout) of a chain
// suffix, forward from a position; up reads the predecessor lists (Lin)
// of a chain prefix, backward from it (see span). Every operation below
// is written once and takes its direction when a contour is merged or a
// walker is made, never per list entry.

// Contour is the merged complete predecessor or successor list of a
// node set S (Procedure 2, and MergeSuccLists, its dual): one extreme
// position per chain — the largest position reaching S for a
// predecessor contour, the smallest position reachable from S for a
// successor contour — plus the SCC membership of S itself, needed to
// answer *strict* reachability when the probe node can sit inside S.
type Contour struct {
	// step is the contour's direction: +1 for a successor contour
	// (down), -1 for a predecessor one. Position a lies before b in
	// that direction when (a-b)*step < 0, and vals keep, per chain, the
	// position before all others.
	step    int32
	vals    map[int32]int32 // cid -> extreme position
	members map[int32]bool  // SCCs containing an element of S
}

// Size returns the number of chain entries in the contour (the paper's
// contour-size measure; bounded by the number of chains).
func (c *Contour) Size() int { return len(c.vals) }

// fold records position p on chain cid, keeping the chain's extreme.
func (c *Contour) fold(cid, p int32) {
	if cur, ok := c.vals[cid]; !ok || (p-cur)*c.step < 0 {
		c.vals[cid] = p
	}
}

// Match reports whether a single entry of a complete list read in the
// other direction, at position pos on chain cid, matches the contour:
// a successor-list entry at or below a predecessor contour's maximum,
// or a predecessor-list entry at or above a successor contour's
// minimum.
func (c *Contour) Match(cid, pos int32) bool {
	m, ok := c.vals[cid]
	return ok && (m-pos)*c.step <= 0
}

// MergeLists computes the contour of S in direction down: per-chain
// minima over the complete successor lists when down, per-chain maxima
// over the complete predecessor lists otherwise (Procedure 2). Each
// element's own position is folded in, and its list is read as a
// walker reads it, so the per-chain visited mark guarantees no list is
// examined twice. The loop folds inline rather than through Walk: a
// call per entry costs arXiv merges ~10%. Work is charged to st.
func (h *ThreeHop) MergeLists(S []graph.NodeID, down bool, st *Stats) *Contour {
	c := &Contour{step: -1, vals: make(map[int32]int32), members: make(map[int32]bool, len(S))}
	if down {
		c.step = 1
	}
	w := Walker{h: h, down: down, visited: make(map[int32]int32)}
	n := int64(0)
	for _, v := range S {
		s := h.scc.Comp[v]
		c.members[s] = true
		cid := h.chainAt[s]
		c.fold(cid, s)
		r, t, step, bound := w.claim(cid, s)
		for t = r.seek(t, bound); t != bound; t = r.seek(t+step, bound) {
			for b, i, p := r.row(t), 0, int32(-1); i < len(b); {
				p, i = nextGap(b, i, p)
				n++
				c.fold(h.chainAt[p], p)
			}
		}
	}
	st.Lookups += n
	return c
}

// threeHopContour is the 3-hop SetContour: a chain contour merged in
// either direction, which ThreeHop.Probe answers from alone.
type threeHopContour struct {
	h *ThreeHop
	*Contour
}

func (a threeHopContour) Probe(v graph.NodeID, st *Stats) bool {
	return a.h.Probe(v, a.Contour, st)
}

// PredContour summarizes S for generic "v reaches S?" probes.
func (h *ThreeHop) PredContour(S []graph.NodeID, st *Stats) SetContour {
	return threeHopContour{h, h.MergeLists(S, false, st)}
}

// SuccContour summarizes S for generic "S reaches v?" probes.
func (h *ThreeHop) SuccContour(S []graph.NodeID, st *Stats) SetContour {
	return threeHopContour{h, h.MergeLists(S, true, st)}
}

// Probe reports whether v is strictly connected to the set S behind c
// in c's direction (Proposition 7): whether v reaches some element of S
// for a predecessor contour, whether some element of S reaches v for a
// successor contour. The rare ambiguous case — v itself is in S, v's
// SCC is trivial, and the only inclusive witness is v's own position —
// falls back to v's DAG neighbors (ResolveAmbiguous).
func (h *ThreeHop) Probe(v graph.NodeID, c *Contour, st *Stats) bool {
	hit, ambiguous := h.CheckOwn(v, c)
	if hit || h.matches(h.scc.Comp[v], c, st) {
		return true
	}
	return ambiguous && h.ResolveAmbiguous(v, c, st)
}

// matches reports whether some entry of the complete list of the SCC
// at position s, read in the direction opposite c's, matches c: its
// successor list against a predecessor contour, its predecessor list
// against a successor contour.
func (h *ThreeHop) matches(s int32, c *Contour, st *Stats) bool {
	n := int64(0)
	r, step, bound := h.span(h.chainAt[s], c.step < 0)
	for t := r.seek(s, bound); t != bound; t = r.seek(t+step, bound) {
		for b, i, p := r.row(t), 0, int32(-1); i < len(b); {
			p, i = nextGap(b, i, p)
			n++
			if c.Match(h.chainAt[p], p) {
				st.Lookups += n
				return true
			}
		}
	}
	st.Lookups += n
	return false
}

// Walker streams the complete-list entries of candidates processed in
// chain order, visiting every list element at most once per walker
// lifetime: down, the Lout entries of chain suffixes for candidates in
// descending position order per chain (the inner loop of Procedure 6);
// up, the Lin entries of chain prefixes in ascending order (Procedure
// 7). Callers create one walker per query node being pruned; a walker
// is single-use state for one evaluation and charges its lookups to
// the sink it was created with.
type Walker struct {
	h       *ThreeHop
	st      *Stats
	down    bool
	visited map[int32]int32 // cid -> the position the chain was last walked from
}

// NewWalker returns a walker over h in direction down, charging st.
func (h *ThreeHop) NewWalker(down bool, st *Stats) *Walker {
	return &Walker{h: h, st: st, down: down, visited: make(map[int32]int32)}
}

// claim returns the rows still to be walked from position s on chain
// cid — the list family, the first row, the step and the bound, as
// span gives them — and marks them walked. The part of the chain
// suffix (down) or prefix (up) from s that a walk from s or from
// before it in that direction already covered is left out, matching
// the `visited` bookkeeping of Procedures 6 and 7; if nothing is left,
// the first row is the bound.
func (w *Walker) claim(cid, s int32) (r *gapRows, t, step, bound int32) {
	r, step, bound = w.h.span(cid, w.down)
	if limit, seen := w.visited[cid]; seen {
		bound = limit
	}
	if t = bound; (bound-s)*step > 0 {
		t = s
		w.visited[cid] = s
	}
	return
}

// Walk invokes f for every list entry in the not-yet-visited part of
// the chain suffix (down) or prefix (up) that starts at v's position,
// as the entry's chain id and position (see Position).
func (w *Walker) Walk(v graph.NodeID, f func(cid, pos int32)) {
	h := w.h
	// Claimed before the walk, so that no more than the loop's own
	// state is live across the calls of f: the extra spills cost arXiv
	// walks ~10%.
	r, t, step, bound := w.claim(h.locate(h.scc.Comp[v]))
	n := int64(0)
	for t = r.seek(t, bound); t != bound; t = r.seek(t+step, bound) {
		for b, i, p := r.row(t), 0, int32(-1); i < len(b); {
			p, i = nextGap(b, i, p)
			n++
			f(h.chainAt[p], p)
		}
	}
	w.st.Lookups += n
}

// Position returns v's chain id and position (engines group candidate
// sets by chain with these and order each group by position). A
// position stands in for the paper's sequence id: within one chain,
// positions are ordered exactly as sequence ids are (of two SCCs on one
// chain, the one at the smaller position reaches the other), but they
// do not start at 0 and comparing positions from two different chains
// means nothing.
func (h *ThreeHop) Position(v graph.NodeID) (cid, pos int32) {
	return h.locate(h.scc.Comp[v])
}

// CheckOwn reports the relationship of v's own chain position against
// a contour: reached (definitely strict), ambiguous (the witness is
// v's own position and v ∈ S), or nothing.
func (h *ThreeHop) CheckOwn(v graph.NodeID, c *Contour) (hit, ambiguous bool) {
	s := h.scc.Comp[v]
	if c.members[s] && h.scc.Nontrivial(s) {
		return true, false
	}
	cid, pos := h.locate(s)
	if m, ok := c.vals[cid]; ok {
		switch {
		case (m-pos)*c.step < 0:
			return true, false
		case m == pos:
			if !c.members[s] {
				return true, false
			}
			return false, true
		}
	}
	return false, false
}

// ResolveAmbiguous answers the rare own-position ambiguity by probing
// v's DAG neighbors inclusively against the contour: its out-neighbors
// against a predecessor contour, its in-neighbors against a successor
// one. v's SCC must be trivial, as it is whenever CheckOwn reports
// ambiguous.
func (h *ThreeHop) ResolveAmbiguous(v graph.NodeID, c *Contour, st *Stats) bool {
	nbrs := h.g.In(v)
	if c.step < 0 {
		nbrs = h.g.Out(v)
	}
	return h.anyNeighborSCC(nbrs, func(s int32) bool { return c.Match(h.locate(s)) || h.matches(s, c, st) })
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

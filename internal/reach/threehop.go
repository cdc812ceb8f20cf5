package reach

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"gtpq/internal/graph"
)

// gapRows is the layout of the Lin/Lout lists: row i is the bytes
// buf[off[i]:off[i+1]]. A row's positions ascend strictly, so each is
// stored as the uvarint gap p - prev - 1 from its predecessor (prev is
// -1 before the first). Rows are only ever read front to back.
type gapRows struct {
	off []int32 // len = rows + 1
	buf []byte
	n   int // entries over all rows
}

// row returns row i's bytes, to be decoded front to back by nextGap:
//
//	for b, i, p := r.row(s), 0, int32(-1); i < len(b); {
//		p, i = nextGap(b, i, p)
//		...
//	}
func (r *gapRows) row(i int32) []byte { return r.buf[r.off[i]:r.off[i+1]] }

// seek returns the first non-empty row met stepping from row t toward
// bound, or bound itself; bound is exclusive and lies on either side of
// t. A run of empty rows is a run of equal offsets: a non-empty row
// costs one inlined compare, and a run is crossed by a binary search,
// so a walk costs the rows that hold entries, not the chain length.
func (r *gapRows) seek(t, bound int32) int32 {
	if t == bound || r.off[t] != r.off[t+1] {
		return t
	}
	return r.cross(t, bound)
}

// cross crosses the run of empty rows holding row t by binary search:
// forward to the first non-empty row before bound (or bound) when
// bound > t, else backward to the last non-empty row after bound (or
// bound). The rows of the run share one offset o = off[t] = off[t+1];
// those before it start below o, and those after it end above o. It
// stays out of line, so that seek inlines.
//
//go:noinline
func (r *gapRows) cross(t, bound int32) int32 {
	o := r.off[t]
	if bound > t {
		lo, hi := t+1, bound
		for lo < hi {
			if m := int32(uint32(lo+hi) >> 1); r.off[m+1] > o {
				hi = m
			} else {
				lo = m + 1
			}
		}
		return lo
	}
	lo, hi := bound+1, t
	for lo < hi {
		if m := int32(uint32(lo+hi) >> 1); r.off[m] < o {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

// nextGap decodes the entry at b[i] of a row, given the row's previous
// position prev (-1 before the first), and returns it with the offset
// of the next entry. A pure function, so the loop above keeps its
// state in registers; nearly every gap is the one-byte case.
func nextGap(b []byte, i int, prev int32) (int32, int) {
	c := b[i]
	if c < 0x80 {
		return prev + int32(c) + 1, i + 1
	}
	gap := uint32(c & 0x7f)
	for shift := uint(7); ; shift += 7 {
		i++
		c = b[i]
		gap |= uint32(c&0x7f) << shift
		if c < 0x80 {
			return prev + int32(gap) + 1, i + 1
		}
	}
}

// appendGaps appends the row encoding of the strictly ascending
// positions ps to buf.
func appendGaps(buf []byte, ps []int32) []byte {
	prev := int32(-1)
	for _, p := range ps {
		buf = binary.AppendUvarint(buf, uint64(p-prev-1))
		prev = p
	}
	return buf
}

// packRows lays encoded rows out as one gapRows.
func packRows(rows [][]byte) gapRows {
	r := gapRows{off: make([]int32, len(rows)+1)}
	for i, b := range rows {
		r.off[i+1] = r.off[i] + int32(len(b))
	}
	r.buf = make([]byte, 0, r.off[len(rows)])
	for _, b := range rows {
		r.buf = append(r.buf, b...)
	}
	r.n = entries(r.buf)
	return r
}

// reorder returns the rows of r in the order named by rows: row i of
// the result is row rows[i] of r.
func (r gapRows) reorder(rows []int32) gapRows {
	out := gapRows{off: make([]int32, len(rows)+1), buf: make([]byte, 0, len(r.buf)), n: r.n}
	for i, s := range rows {
		out.buf = append(out.buf, r.row(s)...)
		out.off[i+1] = int32(len(out.buf))
	}
	return out
}

// entries counts the gaps encoded in b: every uvarint ends in its one
// byte below 0x80.
func entries(b []byte) int {
	n := 0
	for _, c := range b {
		n += int(c>>7 ^ 1)
	}
	return n
}

// ThreeHop is the 3-hop reachability index of Jin et al. used by GTEA.
//
// The graph is condensed to a DAG, covered by disjoint chains (minimum
// path cover), and every SCC s keeps
//
//	Lout(s): per foreign chain, the smallest position s reaches that is
//	         not already derivable from s's successor on its own chain;
//	Lin(s):  per foreign chain, the largest position reaching s that is
//	         not derivable from s's predecessor on its own chain.
//
// The complete successor list X_v of the paper is the union of Lout over
// the suffix of v's chain starting at v (plus v's own position); the
// complete predecessor list Y_v is the union of Lin over the prefix
// ending at v.
//
// Layout. An SCC is named by its position: the chains are laid out one
// after another, chain c holds the positions [chainOff[c],
// chainOff[c+1]) in path order, and position p lies on chain
// chainAt[p] at sequence id p - chainOff[chainAt[p]]. The node -> SCC
// map, the cycle bits and both list families are indexed by position,
// so a chain suffix or prefix is a run of consecutive rows, and a run
// of empty rows is crossed by one binary search over the offsets
// (seek). On one chain,
// positions are ordered exactly as sequence ids are, so every
// same-chain comparison the paper makes holds on positions unchanged;
// across chains a position comparison means nothing. Every list is
// sorted by chain id, which is ascending position order, and is stored
// as varint position gaps (gapRows): on a dense DAG a row holds a few
// hundred of the positions, so nearly every gap is one byte (arXiv:
// 1.01 B per entry). Each list family is one offsets array plus one
// payload array, with no per-SCC slice header and nothing for the
// collector to trace.
// The bytes of an index depend only on the graph, not on how the build
// was scheduled or whether it was decoded from a snapshot. Of the SCC
// condensation the index keeps only the node -> SCC map and one cycle
// bit per SCC (graph.SCCMap), renumbered by position; the members, DAG
// rows and Tarjan ids the build sweeps over are dropped with it.
//
// A built index is immutable: the query methods taking a *Stats sink
// (ReachesSt, the contours and the chain operations) are safe for
// concurrent use.
type ThreeHop struct {
	g   *graph.Graph
	scc graph.SCCMap // node -> position, and a cycle bit per position

	chainOff []int32 // chain c is the positions [chainOff[c], chainOff[c+1])
	chainAt  []int32 // per position: its chain id

	lout gapRows // per position: positions, ascending
	lin  gapRows // per position: positions, ascending

	scratch sync.Pool // *chainScratch for point queries
	seen    sync.Pool // *sccSet for ResolveAmbiguous
}

// locate returns the chain of the SCC at position p, and p.
func (h *ThreeHop) locate(p int32) (cid, pos int32) { return h.chainAt[p], p }

// chainScratch is a dense chain id -> position table for folding lists
// into a per-chain extreme. pos[c] is -1 while chain c is absent;
// touched names the chains present, so emptying the table costs its
// content, not the chain count.
type chainScratch struct {
	pos     []int32
	touched []int32
	out     []int32 // sweep's list under construction
	enc     []byte  // and its encoding
}

func (h *ThreeHop) newScratch() *chainScratch {
	sc := &chainScratch{pos: make([]int32, h.NumChains())}
	for i := range sc.pos {
		sc.pos[i] = -1
	}
	return sc
}

// fold records position p on chain c, keeping the smaller of two
// positions when down and the larger otherwise.
func (sc *chainScratch) fold(c, p int32, down bool) {
	switch cur := sc.pos[c]; {
	case cur == -1:
		sc.pos[c] = p
		sc.touched = append(sc.touched, c)
	case cur != p && (p < cur) == down:
		sc.pos[c] = p
	}
}

// inOrder returns the chains present in ascending order: by sorting
// touched, or, once the table is more than sparsely filled, by reading
// it front to back (half the arXiv build time otherwise goes to sorting).
func (sc *chainScratch) inOrder() []int32 {
	if len(sc.touched)*32 < len(sc.pos) {
		slices.Sort(sc.touched)
		return sc.touched
	}
	sc.touched = sc.touched[:0]
	for c, p := range sc.pos {
		if p != -1 {
			sc.touched = append(sc.touched, int32(c))
		}
	}
	return sc.touched
}

func (sc *chainScratch) reset() {
	for _, c := range sc.touched {
		sc.pos[c] = -1
	}
	sc.touched = sc.touched[:0]
}

// NewThreeHop builds the index for g. Construction is O(total reachable
// chain entries) via sparse per-SCC contours that are freed as soon as
// every dependent has consumed them. The two list sweeps run
// concurrently, each sharded per SCC level; every list is emitted in
// chain-id order, so the bytes do not depend on the scheduling.
func NewThreeHop(g *graph.Graph) *ThreeHop {
	buildCount.Add(1)
	cond := graph.Condense(g)
	chainOff, chainAt, posOf := chainDecompose(cond)
	h := &ThreeHop{g: g, scc: cond.Renumber(posOf), chainOff: chainOff, chainAt: chainAt}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); h.lout = h.sweep(cond, posOf, true) }()
	go func() { defer wg.Done(); h.lin = h.sweep(cond, posOf, false) }()
	wg.Wait()
	return h
}

// sweep computes one list family over the condensation cond, whose SCC
// s sits at position posOf[s]. Down, it is Lout by a reverse-topological
// sweep: the contour of s holds, per chain, the smallest position
// reachable from s (inclusive of s), folded from the contours of s's
// DAG successors. Up, it is Lin by the mirror-image forward sweep over
// predecessors and largest positions. Contours live as ascending
// position slices (one position per chain) and are dropped once every
// SCC that folds them has done so. SCCs are processed one level at a
// time, the level's nodes sharded across goroutines (nodes of one level
// depend only on strictly earlier levels).
func (h *ThreeHop) sweep(cond *graph.Condensation, posOf []int32, down bool) gapRows {
	n := cond.NumSCC()
	deps, users := cond.Out, cond.In
	if !down {
		deps, users = users, deps
	}
	contour := make([][]int32, n) // per position
	pending := make([]int32, n)   // per SCC: users that still need its contour
	for s := range pending {
		pending[s] = int32(len(users(int32(s))))
	}
	lists := make([][]byte, n) // per position: the encoded row
	step := func(s int32, sc *chainScratch) {
		own, pos := h.locate(posOf[s])
		sc.fold(own, pos, down)
		for _, w := range deps(s) {
			for _, p := range contour[posOf[w]] {
				sc.fold(h.chainAt[p], p, down)
			}
		}
		m := make([]int32, len(sc.touched))
		for i, c := range sc.inOrder() {
			m[i] = sc.pos[c]
		}
		sc.reset()
		contour[pos] = m
		// The list of s: entries on foreign chains not derivable from the
		// chain neighbor. The neighbor (if any) is one of deps(s), so its
		// contour is still alive here, and it names no chain m does not.
		var via []int32
		if t := h.chainNeighbor(pos, down); t != -1 {
			via = contour[t]
		}
		sc.out = sc.out[:0]
		for _, p := range m {
			if p == pos {
				continue // m's entry on s's own chain: in a DAG nothing beats s there
			}
			for len(via) > 0 && via[0] < p {
				via = via[1:]
			}
			if len(via) > 0 && via[0] == p {
				continue // derivable via the chain neighbor, whose contour m folded in
			}
			sc.out = append(sc.out, p)
		}
		if len(sc.out) > 0 {
			sc.enc = appendGaps(sc.enc[:0], sc.out)
			lists[pos] = slices.Clone(sc.enc)
		}
		// Free contours nobody will read again. The decrement comes after
		// every read of contour[w] above, so under level-parallelism the
		// last sibling to finish is the one that frees.
		for _, w := range deps(s) {
			if atomic.AddInt32(&pending[w], -1) == 0 {
				contour[posOf[w]] = nil
			}
		}
		if len(users(s)) == 0 {
			contour[pos] = nil
		}
	}
	pool := sync.Pool{New: func() any { return h.newScratch() }}
	for _, bucket := range levelize(cond, down) {
		parallelFor(len(bucket), func(lo, hi int) {
			sc := pool.Get().(*chainScratch)
			for _, s := range bucket[lo:hi] {
				step(s, sc)
			}
			pool.Put(sc)
		})
	}
	return packRows(lists)
}

// chainNeighbor returns the position after (down) or before p on its
// chain, or -1.
func (h *ThreeHop) chainNeighbor(p int32, down bool) int32 {
	c := h.chainAt[p]
	if down {
		p++
	} else {
		p--
	}
	if p < h.chainOff[c] || p >= h.chainOff[c+1] {
		return -1
	}
	return p
}

// span returns what a walk along chain c in direction down reads: the
// list family, the step from one of its rows to the next, and the
// bound the walk stops at, exclusive, at the end of the chain. Down,
// that is the Lout rows walked forward to the chain's last position;
// up, the Lin rows walked backward to its first.
func (h *ThreeHop) span(c int32, down bool) (r *gapRows, step, bound int32) {
	if down {
		return &h.lout, 1, h.chainOff[c+1]
	}
	return &h.lin, -1, h.chainOff[c] - 1
}

// NumChains returns the number of chains in the cover.
func (h *ThreeHop) NumChains() int { return len(h.chainOff) - 1 }

// Kind returns this backend's kind name.
func (h *ThreeHop) Kind() string { return "threehop" }

// LabelCount implements ContourIndex via the graph's label index.
func (h *ThreeHop) LabelCount(label string) int { return len(h.g.ByLabel(label)) }

// IndexSize returns the total number of Lin/Lout entries — the paper's
// |Lin| + |Lout| measure.
func (h *ThreeHop) IndexSize() int { return h.lout.n + h.lin.n }

// ReachesSt reports whether there is a non-empty path from u to v,
// following the paper's three-step 3-hop query: same-chain positions
// compare like sequence numbers; otherwise the complete successor list
// of u is matched against the complete predecessor list of v. Work is
// charged to st.
func (h *ThreeHop) ReachesSt(u, v graph.NodeID, st *Stats) bool {
	st.Queries++
	pu, pv := h.scc.Comp[u], h.scc.Comp[v]
	if pu == pv {
		return h.scc.Nontrivial(pu)
	}
	return h.sccReaches(pu, pv, st)
}

// sccReaches answers reachability between the SCCs at two distinct
// positions (strict and inclusive coincide there).
func (h *ThreeHop) sccReaches(pu, pv int32, st *Stats) bool {
	cu, cv := h.chainAt[pu], h.chainAt[pv]
	if cu == cv {
		return pu < pv
	}
	// X_pu as a per-chain minimum.
	x, _ := h.scratch.Get().(*chainScratch)
	if x == nil {
		x = h.newScratch()
	}
	defer func() { x.reset(); h.scratch.Put(x) }()
	x.fold(cu, pu, true)
	// Lookups are counted in a local and charged to st once per call,
	// here and in every list loop: an increment through st each entry
	// would make the loop wait on its own store.
	n := int64(0)
	r, step, bound := h.span(cu, true)
	for t := r.seek(pu, bound); t != bound; t = r.seek(t+step, bound) {
		for b, i, p := r.row(t), 0, int32(-1); i < len(b); {
			p, i = nextGap(b, i, p)
			n++
			x.fold(h.chainAt[p], p, true)
		}
	}
	// Y_pv scanned against X.
	if m := x.pos[cv]; m != -1 && m <= pv {
		st.Lookups += n
		return true
	}
	r, step, bound = h.span(cv, false)
	for t := r.seek(pv, bound); t != bound; t = r.seek(t+step, bound) {
		for b, i, p := r.row(t), 0, int32(-1); i < len(b); {
			p, i = nextGap(b, i, p)
			n++
			if m := x.pos[h.chainAt[p]]; m != -1 && m <= p {
				st.Lookups += n
				return true
			}
		}
	}
	st.Lookups += n
	return false
}

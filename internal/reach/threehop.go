package reach

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"gtpq/internal/graph"
)

// csr is package graph's layout for lists of lists, here for the chains:
// row i is val[off[i]:off[i+1]].
type csr[T any] struct {
	off []int32 // len = rows + 1
	val []T
}

func (c csr[T]) rows() int { return len(c.off) - 1 }

func (c csr[T]) row(i int32) []T {
	lo, hi := c.off[i], c.off[i+1]
	return c.val[lo:hi:hi]
}

// gapRows is the layout of the Lin/Lout lists: row i is the bytes
// buf[off[i]:off[i+1]]. A row's positions ascend strictly, so each is
// stored as the uvarint gap p - prev - 1 from its predecessor (prev is
// -1 before the first). Rows are only ever read front to back.
type gapRows struct {
	off []int32 // len = rows + 1
	buf []byte
	n   int // entries over all rows
}

func (r gapRows) empty(i int32) bool { return r.off[i] == r.off[i+1] }

// row returns row i's bytes, to be decoded front to back by nextGap:
//
//	for b, i, p := r.row(s), 0, int32(-1); i < len(b); {
//		p, i = nextGap(b, i, p)
//		...
//	}
func (r gapRows) row(i int32) []byte { return r.buf[r.off[i]:r.off[i+1]] }

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
// ending at v. Skip pointers jump over positions with empty lists.
//
// Layout. The chains are laid out one after another in chains.val, and
// an SCC's position is its index there: position p lies on chain
// chainAt[p], at sequence id p - chains.off[chainAt[p]]. On one chain,
// positions are ordered exactly as sequence ids are, so every
// same-chain comparison the paper makes holds on positions unchanged;
// across chains a position comparison means nothing. Every list is
// sorted by chain id, which is ascending position order, and is stored
// as varint position gaps (gapRows): on a dense DAG a row holds a few
// hundred of the positions, so nearly every gap is one byte (arXiv:
// 1.01 B per entry). The chains and the two list families are each one
// offsets array plus one payload array, with no per-SCC slice header
// and nothing for the collector to trace.
// The bytes of an index depend only on the graph, not on how the build
// was scheduled or whether it was decoded from a snapshot. Of the SCC
// condensation the index keeps only the node -> SCC map and one cycle
// bit per SCC (graph.SCCMap); the members and DAG rows the build sweeps
// over are dropped with it.
//
// A built index is immutable: the query methods taking a *Stats sink
// (ReachesSt and the ChainIndex operations) are safe for concurrent
// use. The legacy Reaches, charging the index's own Stats, is not.
type ThreeHop struct {
	g   *graph.Graph
	scc graph.SCCMap // all the index keeps of the condensation

	chains  csr[int32] // chain -> scc ids in order; chains.val is indexed by position
	posOf   []int32    // per scc: its position
	chainAt []int32    // per position: its chain id

	lout gapRows // per scc: positions, ascending
	lin  gapRows // per scc: positions, ascending

	// skipOut[s]: the scc at the smallest position > pos(s) on s's chain
	// with a non-empty Lout, or -1. skipIn is symmetric (largest position
	// < pos(s) with non-empty Lin).
	skipOut []int32
	skipIn  []int32

	scratch sync.Pool // *chainScratch for point queries
	seen    sync.Pool // *sccSet for ResolveAmbiguous*
	stats   Stats
}

// locate returns the chain and position of SCC s.
func (h *ThreeHop) locate(s int32) (cid, pos int32) {
	pos = h.posOf[s]
	return h.chainAt[pos], pos
}

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
	sc := &chainScratch{pos: make([]int32, h.chains.rows())}
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
	h := &ThreeHop{g: g, scc: cond.SCCMap}
	h.chains, h.posOf, h.chainAt = chainDecompose(cond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); h.lout = h.sweep(cond, true) }()
	go func() { defer wg.Done(); h.lin = h.sweep(cond, false) }()
	wg.Wait()
	h.buildSkips()
	return h
}

// sweep computes one list family over the condensation cond. Down, it
// is Lout by a reverse-topological sweep: the contour of s holds, per
// chain, the smallest position reachable from s (inclusive of s),
// folded from the contours of s's DAG successors. Up, it is Lin by the
// mirror-image forward sweep over predecessors and largest positions.
// Contours live as ascending position slices (one position per chain)
// and are dropped once every SCC that folds them has done so. SCCs are
// processed one level at a time, the level's nodes sharded across
// goroutines (nodes of one level depend only on strictly earlier
// levels).
func (h *ThreeHop) sweep(cond *graph.Condensation, down bool) gapRows {
	n := cond.NumSCC()
	deps, users := cond.Out, cond.In
	if !down {
		deps, users = users, deps
	}
	contour := make([][]int32, n)
	pending := make([]int32, n) // users that still need contour[s]
	for s := range pending {
		pending[s] = int32(len(users(int32(s))))
	}
	lists := make([][]byte, n) // encoded rows
	step := func(s int32, sc *chainScratch) {
		own, pos := h.locate(s)
		sc.fold(own, pos, down)
		for _, w := range deps(s) {
			for _, p := range contour[w] {
				sc.fold(h.chainAt[p], p, down)
			}
		}
		m := make([]int32, len(sc.touched))
		for i, c := range sc.inOrder() {
			m[i] = sc.pos[c]
		}
		sc.reset()
		contour[s] = m
		// The list of s: entries on foreign chains not derivable from the
		// chain neighbor. The neighbor (if any) is one of deps(s), so its
		// contour is still alive here, and it names no chain m does not.
		var via []int32
		if t := h.chainNeighbor(s, down); t != -1 {
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
			lists[s] = slices.Clone(sc.enc)
		}
		// Free contours nobody will read again. The decrement comes after
		// every read of contour[w] above, so under level-parallelism the
		// last sibling to finish is the one that frees.
		for _, w := range deps(s) {
			if atomic.AddInt32(&pending[w], -1) == 0 {
				contour[w] = nil
			}
		}
		if len(users(s)) == 0 {
			contour[s] = nil
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

func (h *ThreeHop) buildSkips() {
	n := len(h.posOf)
	h.skipOut = make([]int32, n)
	h.skipIn = make([]int32, n)
	for c := int32(0); c < int32(h.chains.rows()); c++ {
		chain := h.chains.row(c)
		next := int32(-1)
		for i := len(chain) - 1; i >= 0; i-- {
			s := chain[i]
			h.skipOut[s] = next
			if !h.lout.empty(s) {
				next = s
			}
		}
		prev := int32(-1)
		for _, s := range chain {
			h.skipIn[s] = prev
			if !h.lin.empty(s) {
				prev = s
			}
		}
	}
}

// chainNeighbor returns the successor (down) or predecessor of s on its
// chain, or -1.
func (h *ThreeHop) chainNeighbor(s int32, down bool) int32 {
	c, p := h.locate(s)
	if down {
		p++
	} else {
		p--
	}
	if p < h.chains.off[c] || p >= h.chains.off[c+1] {
		return -1
	}
	return h.chains.val[p]
}

// NumChains returns the number of chains in the cover.
func (h *ThreeHop) NumChains() int { return h.chains.rows() }

// Kind returns the registry name of this backend.
func (h *ThreeHop) Kind() string { return "threehop" }

// LabelCount implements ContourIndex via the graph's label index.
func (h *ThreeHop) LabelCount(label string) int { return len(h.g.ByLabel(label)) }

// IndexSize returns the total number of Lin/Lout entries — the paper's
// |Lin| + |Lout| measure.
func (h *ThreeHop) IndexSize() int { return h.lout.n + h.lin.n }

// Stats returns the counters charged by the legacy Reaches.
func (h *ThreeHop) Stats() *Stats { return &h.stats }

// Reaches answers like ReachesSt but charges the index's own Stats;
// retained for the single-threaded Index contract.
func (h *ThreeHop) Reaches(u, v graph.NodeID) bool {
	return h.ReachesSt(u, v, &h.stats)
}

// ReachesSt reports whether there is a non-empty path from u to v,
// following the paper's three-step 3-hop query: same-chain positions
// compare like sequence numbers; otherwise the complete successor list
// of u is matched against the complete predecessor list of v. Work is
// charged to st.
func (h *ThreeHop) ReachesSt(u, v graph.NodeID, st *Stats) bool {
	st.Queries++
	su, sv := h.scc.Comp[u], h.scc.Comp[v]
	if su == sv {
		return h.scc.Nontrivial(su)
	}
	return h.sccReaches(su, sv, st)
}

// sccReaches answers reachability between two distinct SCCs (strict and
// inclusive coincide there).
func (h *ThreeHop) sccReaches(su, sv int32, st *Stats) bool {
	cu, pu := h.locate(su)
	cv, pv := h.locate(sv)
	if cu == cv {
		return pu < pv
	}
	// X_su as a per-chain minimum.
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
	for s := h.firstOut(su); s != -1; s = h.skipOut[s] {
		for b, i, p := h.lout.row(s), 0, int32(-1); i < len(b); {
			p, i = nextGap(b, i, p)
			n++
			x.fold(h.chainAt[p], p, true)
		}
	}
	// Y_sv scanned against X.
	if m := x.pos[cv]; m != -1 && m <= pv {
		st.Lookups += n
		return true
	}
	for s := h.firstIn(sv); s != -1; s = h.skipIn[s] {
		for b, i, p := h.lin.row(s), 0, int32(-1); i < len(b); {
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

// firstOut returns s itself when it has a non-empty Lout, otherwise the
// first later position with one.
func (h *ThreeHop) firstOut(s int32) int32 {
	if !h.lout.empty(s) {
		return s
	}
	return h.skipOut[s]
}

func (h *ThreeHop) firstIn(s int32) int32 {
	if !h.lin.empty(s) {
		return s
	}
	return h.skipIn[s]
}

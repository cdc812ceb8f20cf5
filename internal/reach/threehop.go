package reach

import (
	"encoding/binary"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

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

// transpose returns the rows of r read by column: row p of the result
// lists, ascending, the rows of r that hold position p, and counts[p]
// must be their number. The columns are split into one contiguous range
// per worker, each holding about an equal share of the entries. A
// worker scans every row of r in ascending order and scatters the
// entries in its range into their columns, so each column fills in
// ascending order without a sort, and the bytes do not depend on procs;
// it then sizes its columns' encodings, and once every worker has,
// writes them.
func (r *gapRows) transpose(counts []int32, procs int) gapRows {
	k := int32(len(counts))
	start := make([]int32, k+1) // column p is cols[start[p]:start[p+1]]
	for p, c := range counts {
		start[p+1] = start[p] + c
	}
	cols := make([]int32, r.n)
	workers := max(1, min(procs, r.n/minPerWorker))
	cut := make([]int32, workers+1) // worker w owns the columns [cut[w], cut[w+1])
	for w := 1; w < workers; w++ {
		c, _ := slices.BinarySearch(start, int32(w*r.n/workers))
		cut[w] = int32(c)
	}
	cut[workers] = k
	out := gapRows{off: make([]int32, k+1), n: r.n}
	spread(workers, func(w int) {
		lo, hi := cut[w], cut[w+1]
		fill := slices.Clone(start[lo:hi]) // per column: its next free slot
		for s := range k {
			for b, i, p := r.row(s), 0, int32(-1); i < len(b); {
				if p, i = nextGap(b, i, p); p >= hi {
					break
				}
				if q := p - lo; q >= 0 {
					cols[fill[q]] = s
					fill[q]++
				}
			}
		}
		for p := lo; p < hi; p++ {
			out.off[p+1] = gapsLen(cols[start[p]:start[p+1]])
		}
	})
	for p := range k {
		out.off[p+1] += out.off[p]
	}
	out.buf = make([]byte, out.off[k])
	spread(workers, func(w int) {
		for p := cut[w]; p < cut[w+1]; p++ {
			appendGaps(out.buf[out.off[p]:out.off[p]:out.off[p+1]], cols[start[p]:start[p+1]])
		}
	})
	return out
}

// minPerWorker is the fewest entries transpose hands a goroutine: a
// small index is transposed inline.
const minPerWorker = 1 << 14

// gapsLen returns the length of the row encoding of ps.
func gapsLen(ps []int32) int32 {
	n, prev := 0, int32(-1)
	for _, p := range ps {
		n += (bits.Len32(uint32(p-prev-1)|1) + 6) / 7 // the uvarint's length
		prev = p
	}
	return int32(n)
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
// ending at v. The two families hold one set of pairs: p ∈ Lout(s)
// exactly when s ∈ Lin(p), so the build computes Lout and transposes it
// (see sweep).
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
// into a per-chain minimum. pos[c] is absent while chain c is absent;
// touched names the chains present, so emptying the table costs its
// content, not the chain count. The sweep keeps one per worker, with
// the buffers of the SCC it is on.
type chainScratch struct {
	pos     []int32
	touched []int32
	m       []int32 // sweep's contour, as the positions drain returns
	set     []int32 // sweep's reach set of an SCC no other SCC reads
	row     []byte  // sweep's row under construction, gap-coded
	hits    []int32 // sweep's per-position count of the rows it emitted holding that position
}

// absent marks an empty slot of chainScratch.pos: above every position,
// so that a fold is one compare.
const absent = math.MaxInt32

func (h *ThreeHop) newScratch() *chainScratch {
	sc := &chainScratch{pos: make([]int32, h.NumChains())}
	for i := range sc.pos {
		sc.pos[i] = absent
	}
	return sc
}

// fold records position p on chain c, keeping the smaller of two
// positions.
func (sc *chainScratch) fold(c, p int32) {
	if cur := sc.pos[c]; p < cur {
		if cur == absent {
			sc.touched = append(sc.touched, c)
		}
		sc.pos[c] = p
	}
}

// drain returns the positions present in ascending chain order, in
// sc.m's storage, and empties the table. A sparse table sorts touched;
// once the table is more than sparsely filled, it is read front to back
// and cleared as it is read, without a branch per slot (half the arXiv
// build time otherwise goes to sorting).
func (sc *chainScratch) drain() []int32 {
	m := slices.Grow(sc.m[:0], len(sc.touched)+1) // a spare slot for the dense read's last store
	m = m[:len(sc.touched)+1]
	if len(sc.touched)*32 < len(sc.pos) {
		slices.Sort(sc.touched)
		for i, c := range sc.touched {
			m[i] = sc.pos[c]
			sc.pos[c] = absent
		}
	} else {
		j := 0
		for c, p := range sc.pos {
			m[j] = p
			j += int((uint64(absent-p) + math.MaxUint32) >> 32) // 1 unless p is absent
			sc.pos[c] = absent
		}
	}
	sc.m = m[:len(sc.touched)]
	sc.touched = sc.touched[:0]
	return sc.m
}

func (sc *chainScratch) reset() {
	for _, c := range sc.touched {
		sc.pos[c] = absent
	}
	sc.touched = sc.touched[:0]
}

// fillSuffix adds to the reach set r the suffix of p's chain that
// starts at p. A reach set is the strict reach set of an SCC as a
// bitset over positions: bit p of r is r[p>>5]>>(p&31)&1, its 32-bit
// words held as int32 so that it shares the sweep's contour slices with
// the list form (see sweep). Every set the sweep builds is a union of
// chain suffixes, so when p is in r the whole suffix already is.
func (h *ThreeHop) fillSuffix(r []int32, p int32) {
	if r[p>>5]>>(p&31)&1 != 0 {
		return
	}
	e := h.chainOff[h.chainAt[p]+1] - 1 // the chain's last position
	i, j := p>>5, e>>5
	lo, hi := ^uint32(0)<<(p&31), ^uint32(0)>>(31-e&31)
	if i == j {
		r[i] |= int32(lo & hi)
		return
	}
	r[i] |= int32(lo)
	for k := i + 1; k < j; k++ {
		r[k] = -1
	}
	r[j] |= int32(hi)
}

// putGap appends to row the gap from prev to p, a position above prev,
// and counts p in hits.
func putGap(row []byte, prev, p int32, hits []int32) []byte {
	hits[p]++
	return binary.AppendUvarint(row, uint64(p-prev-1))
}

// The reach set of an SCC's chain successor next lies in the SCC's own,
// so on each chain next's contour entry is at or past the SCC's, and
// the SCC's entry is derivable from next exactly when the two are the
// same position. listRow and setRow return the Lout row of an SCC from
// its contour and next's (via; next is -1 and via nil for none), in
// sc.row's storage, and count its entries in sc.hits.

// listRow returns the row of an SCC whose contour is the list m, so
// that via is a list too: m less next and less via's entries.
func (sc *chainScratch) listRow(m []int32, next int32, via []int32) []byte {
	row, prev, k := sc.row[:0], int32(-1), 0
	for _, p := range m {
		if p == next {
			continue // m's one entry on the SCC's own chain
		}
		for k < len(via) && via[k] < p {
			k++
		}
		if k < len(via) && via[k] == p {
			continue // derivable via the chain successor
		}
		row, prev = putGap(row, prev, p, sc.hits), p
	}
	sc.row = row
	return row
}

// setRow returns the row of an SCC whose reach set is r, starts being
// the bitset of the chains' first positions. It reads the contour off r
// word by word, less next and less what next derives: next's reach set
// masks it, or the entries of its list are cleared one by one.
func (sc *chainScratch) setRow(r, starts []int32, next int32, via []int32) []byte {
	row, prev, k := sc.row[:0], int32(-1), 0
	viaSet := len(via) == len(r)
	carry := uint32(0) // the last bit of the previous word
	for i, x := range r {
		u := uint32(x)
		c := u&^(u<<1|carry) | u&uint32(starts[i])
		carry = u >> 31
		if viaSet {
			c &^= uint32(via[i])
		} else {
			for ; k < len(via) && via[k]>>5 == int32(i); k++ {
				c &^= 1 << (via[k] & 31)
			}
		}
		if next>>5 == int32(i) {
			c &^= 1 << (next & 31)
		}
		for ; c != 0; c &= c - 1 {
			p := int32(i<<5 + bits.TrailingZeros32(c))
			row, prev = putGap(row, prev, p, sc.hits), p
		}
	}
	sc.row = row
	return row
}

// NewThreeHop builds the index for g. Construction is O(total reachable
// chain entries) via per-SCC contours, each a position list or a reach
// set, whichever is smaller, that are freed as soon as every dependent
// has consumed them. One list sweep computes Lout, each SCC level
// sharded over GOMAXPROCS goroutines, and Lin is its transpose: both
// families list the same pairs (s, p), Lout by s and Lin by p. Every row
// comes out in ascending position order whatever the scheduling, so the
// bytes depend only on the graph.
func NewThreeHop(g *graph.Graph) *ThreeHop {
	buildCount.Add(1)
	procs := runtime.GOMAXPROCS(0)
	cond := graph.Condense(g)
	chainOff, chainAt, posOf := chainDecompose(cond)
	h := &ThreeHop{g: g, scc: cond.Renumber(posOf), chainOff: chainOff, chainAt: chainAt}
	var hits []int32
	h.lout, hits = h.sweep(cond, posOf, procs)
	h.lin = h.lout.transpose(hits, procs)
	return h
}

// sweep computes Lout over the condensation cond, whose SCC s sits at
// position posOf[s], by a reverse-topological sweep. The contour of s
// holds, per chain, the smallest position s reaches by a non-empty
// path: the positions of s's DAG successors folded with their
// contours. Lout(s) is the contour less s's own chain and less the
// entries of the contour of s's successor on its chain. Contours are
// dropped once every SCC that folds them has done so. SCCs are
// processed one level at a time, the level's SCCs handed out to procs
// goroutines (SCCs of one level depend only on strictly earlier
// levels). It also returns, per position p, the number of rows that
// hold p: the row lengths of Lin.
//
// A contour is kept in whichever of two forms is smaller. Over n
// positions, a reach set takes words = ceil(n/32) 32-bit words, so a
// contour of fewer entries stays an ascending position list (one
// position per chain; none for an SCC without successors), and a longer
// one is stored as s's reach set: the length of the slice tells the
// forms apart. Chain edges are DAG edges, so s's reach set is, on every
// chain it meets, the suffix from its contour entry on, and its contour
// is the set's positions whose chain predecessor it lacks. A contour
// holds one entry per chain s reaches, so it is at least as long as
// each successor's: an SCC with a successor in set form is in set form
// too, and ORs the successors' sets and adds the suffixes their lists
// and positions start. Otherwise the lists are folded per chain, as a
// point query does, and the result is converted when it is long. The
// reach set of s's chain successor lies in s's, so an entry of s is
// derivable from that successor exactly when the successor reaches it:
// a bit test against a set, or, along a list, the same position on that
// chain (a merge walk).
//
// Lin needs no sweep of its own. Say p ∈ Lout(s): p is the smallest
// position on its chain that s reaches, and s's chain successor does
// not reach p, so s is the largest position on its chain that reaches
// p; and s does not reach p-1, so s reaching p is not derivable from
// p's chain predecessor. That is s ∈ Lin(p), and the converse is the
// mirror image.
func (h *ThreeHop) sweep(cond *graph.Condensation, posOf []int32, procs int) (gapRows, []int32) {
	n := cond.NumSCC()
	words := (n + 31) / 32 // the length of a reach set
	starts := make([]int32, words)
	for _, p := range h.chainOff[:h.NumChains()] {
		starts[p>>5] |= 1 << (p & 31)
	}
	levels := levelize(cond)
	lastUse := make([]int32, n) // per SCC: the level of its last DAG predecessor
	for l, bucket := range levels {
		for _, s := range bucket {
			for _, w := range cond.Out(s) {
				lastUse[w] = int32(l)
			}
		}
	}
	contour := make([][]int32, n) // per position: a list, or a reach set of length words
	lists := make([][]byte, n)    // per position: the encoded row
	// newSet returns an empty reach set: a new one when others will read
	// it, else the worker's own.
	newSet := func(sc *chainScratch, read bool) []int32 {
		if read {
			return make([]int32, words)
		}
		clear(sc.set)
		return sc.set
	}
	step := func(s int32, sc *chainScratch) {
		own, pos := h.locate(posOf[s])
		read := len(cond.In(s)) > 0 // else nothing reads the contour of s
		var set, m []int32
		for _, w := range cond.Out(s) {
			if len(contour[posOf[w]]) == words {
				set = newSet(sc, read)
				break
			}
		}
		if set != nil {
			// The sets first, so that the fills skip the suffixes they hold.
			for _, w := range cond.Out(s) {
				if pw := posOf[w]; len(contour[pw]) == words {
					for i, x := range contour[pw] {
						set[i] |= x
					}
				}
			}
			for _, w := range cond.Out(s) {
				pw := posOf[w]
				if c := contour[pw]; len(c) < words {
					for _, p := range c {
						h.fillSuffix(set, p)
					}
				}
				h.fillSuffix(set, pw)
			}
		} else {
			for _, w := range cond.Out(s) {
				pw := posOf[w]
				sc.fold(h.chainAt[pw], pw)
				for _, p := range contour[pw] {
					sc.fold(h.chainAt[p], p)
				}
			}
			m = sc.drain()
			if len(m) >= words {
				set = newSet(sc, read)
				for _, p := range m {
					h.fillSuffix(set, p)
				}
			}
		}
		// The list of s: entries on foreign chains not derivable from the
		// chain successor. The successor (if any) is one of s's DAG
		// successors, so its contour is still alive here.
		next, via := int32(-1), []int32(nil) // s's chain successor and its contour
		if pos+1 < h.chainOff[own+1] {
			next, via = pos+1, contour[pos+1]
		}
		var row []byte
		if set == nil {
			row = sc.listRow(m, next, via)
		} else {
			row = sc.setRow(set, starts, next, via)
		}
		if len(row) > 0 {
			lists[pos] = slices.Clone(row)
		}
		if read {
			if set != nil {
				contour[pos] = set
			} else if len(m) > 0 {
				contour[pos] = slices.Clone(m)
			}
		}
	}
	scratch := make([]*chainScratch, procs) // per worker, made on first use
	for l, bucket := range levels {
		parallelFor(procs, len(bucket), func(w, lo, hi int) {
			sc := scratch[w]
			if sc == nil {
				sc = h.newScratch()
				sc.set = make([]int32, words)
				sc.hits = make([]int32, n)
				scratch[w] = sc
			}
			for _, s := range bucket[lo:hi] {
				step(s, sc)
			}
		})
		// Free the contours no later level reads.
		for _, s := range bucket {
			for _, w := range cond.Out(s) {
				if lastUse[w] == int32(l) {
					contour[posOf[w]] = nil
				}
			}
		}
	}
	hits := make([]int32, n)
	for _, sc := range scratch {
		if sc != nil {
			for p, k := range sc.hits {
				hits[p] += k
			}
		}
	}
	return packRows(lists), hits
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

// IndexSize returns the total number of Lin/Lout entries — the paper's
// |Lin| + |Lout| measure.
func (h *ThreeHop) IndexSize() int { return h.lout.n + h.lin.n }

// ReachesSt reports whether there is a non-empty path from u to v,
// following the paper's three-step 3-hop query: same-chain positions
// compare like sequence numbers; otherwise the complete successor list
// of u is matched against the complete predecessor list of v. Work is
// charged to st.
func (h *ThreeHop) ReachesSt(u, v graph.NodeID, st *Stats) bool {
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
	x.fold(cu, pu)
	// Lookups are counted in a local and charged to st once per call,
	// here and in every list loop: an increment through st each entry
	// would make the loop wait on its own store.
	n := int64(0)
	r, step, bound := h.span(cu, true)
	for t := r.seek(pu, bound); t != bound; t = r.seek(t+step, bound) {
		for b, i, p := r.row(t), 0, int32(-1); i < len(b); {
			p, i = nextGap(b, i, p)
			n++
			x.fold(h.chainAt[p], p)
		}
	}
	// Y_pv scanned against X.
	if x.pos[cv] <= pv {
		st.Lookups += n
		return true
	}
	r, step, bound = h.span(cv, false)
	for t := r.seek(pv, bound); t != bound; t = r.seek(t+step, bound) {
		for b, i, p := r.row(t), 0, int32(-1); i < len(b); {
			p, i = nextGap(b, i, p)
			n++
			if x.pos[h.chainAt[p]] <= p {
				st.Lookups += n
				return true
			}
		}
	}
	st.Lookups += n
	return false
}

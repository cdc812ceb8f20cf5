package reach

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"gtpq/internal/graph"
)

// AppendIndex appends the image of a built index to b: its resident
// arrays, little-endian and fixed-width, in the layout a snapshot of
// version 2 stores (see internal/snapshot). The graph is stored beside
// the index, and is handed back to the decoders.
func AppendIndex(b []byte, h ContourIndex) ([]byte, error) {
	switch h := h.(type) {
	case *ThreeHop:
		return h.appendImage(b), nil
	case *TC:
		return h.appendImage(b), nil
	}
	return nil, fmt.Errorf("reach: index kind %q has no snapshot codec", h.Kind())
}

// DecodeIndex revives a kind index over the frozen graph g from the
// image d holds, and leaves d after it. It reads the image into
// exact-length copies and validates it in O(V+E) plus one pass over the
// lists; the index answers identically to a fresh build, which is not
// redone.
func DecodeIndex(kind string, g *graph.Graph, d *graph.Decoder) (ContourIndex, error) {
	switch kind {
	case "threehop":
		return decodeThreeHop(g, d)
	case "tc":
		return decodeTC(g, d)
	}
	return nil, fmt.Errorf("reach: index kind %q has no snapshot codec", kind)
}

// DecodeIndexV1 revives a kind index over g from the payload a snapshot
// of version 1 stores, which names SCCs by their Tarjan ids: nothing
// writes that payload any more, but files written before version 2
// still load through it.
func DecodeIndexV1(kind string, g *graph.Graph, data []byte) (ContourIndex, error) {
	switch kind {
	case "threehop":
		return unmarshalThreeHop(g, data)
	case "tc":
		return unmarshalTC(g, data)
	}
	return nil, fmt.Errorf("reach: index kind %q has no snapshot codec", kind)
}

// --- ThreeHop image ---
//
//	uvarint K, uvarint C      SCCs (= positions) and chains
//	chainOff                  C+1 int32
//	scc                       graph.SCCMap image: Comp, the cycle bits
//	lout, lin                 per family: off (K+1 int32), uvarint
//	                          len(buf), buf
//
// chainAt and the entry counts are derived on load.

func (h *ThreeHop) appendImage(b []byte) []byte {
	k := len(h.chainAt)
	b = slices.Grow(b, 32+4*len(h.chainOff)+4*len(h.scc.Comp)+k/8+8*(k+1)+len(h.lout.buf)+len(h.lin.buf))
	b = binary.AppendUvarint(b, uint64(k))
	b = binary.AppendUvarint(b, uint64(h.NumChains()))
	b = graph.AppendInt32s(b, h.chainOff)
	b = h.scc.AppendImage(b)
	for _, r := range []gapRows{h.lout, h.lin} {
		b = graph.AppendInt32s(b, r.off)
		b = binary.AppendUvarint(b, uint64(len(r.buf)))
		b = append(b, r.buf...)
	}
	return b
}

// decodeThreeHop revives a 3-hop index over g from its image. It
// checks that the chains are non-empty and tile [0, K), that the
// SCCMap renumbers g's SCCs onto the positions (graph.DecodeSCCMap), and
// that every list row decodes inside its row, with minimal varints, to
// positions below K.
func decodeThreeHop(g *graph.Graph, d *graph.Decoder) (ContourIndex, error) {
	k := d.Count(4) // a position takes at least a list offset
	chains := d.Count(4)
	chainOff := d.Int32s(chains + 1)
	if d.Err() != nil {
		return nil, fmt.Errorf("reach: threehop image: %w", d.Err())
	}
	if chainOff[0] != 0 || chainOff[chains] != int32(k) {
		return nil, fmt.Errorf("reach: threehop image: chains cover [%d, %d), want [0, %d)", chainOff[0], chainOff[chains], k)
	}
	for c := 0; c < chains; c++ {
		if chainOff[c+1] <= chainOff[c] {
			return nil, fmt.Errorf("reach: threehop image: chain %d spans [%d, %d)", c, chainOff[c], chainOff[c+1])
		}
	}
	h := &ThreeHop{g: g, chainOff: chainOff, chainAt: make([]int32, k)}
	for c := 0; c < chains; c++ {
		for p := chainOff[c]; p < chainOff[c+1]; p++ {
			h.chainAt[p] = int32(c)
		}
	}
	var err error
	if h.scc, err = graph.DecodeSCCMap(d, g, k); err != nil {
		return nil, fmt.Errorf("reach: threehop image: %w", err)
	}
	if h.lout, err = decodeGapRows(d, k); err != nil {
		return nil, err
	}
	if h.lin, err = decodeGapRows(d, k); err != nil {
		return nil, err
	}
	return h, nil
}

// decodeGapRows reads one list family of k rows and checks it.
func decodeGapRows(d *graph.Decoder, k int) (gapRows, error) {
	r := gapRows{off: d.Int32s(k + 1)}
	r.buf = d.Bytes(d.Count(1))
	if d.Err() != nil {
		return r, fmt.Errorf("reach: threehop image: %w", d.Err())
	}
	if r.off[0] != 0 || int(r.off[k]) != len(r.buf) {
		return r, fmt.Errorf("reach: threehop image: list offsets run from %d to %d, want 0 to %d", r.off[0], r.off[k], len(r.buf))
	}
	for s := 0; s < k; s++ {
		lo, hi := r.off[s], r.off[s+1]
		if hi < lo || int(hi) > len(r.buf) {
			return r, fmt.Errorf("reach: threehop image: list offset %d is %d after %d", s+1, hi, lo)
		}
		n, err := checkRow(r.buf[lo:hi], k)
		if err != nil {
			return r, fmt.Errorf("reach: threehop image: list of position %d %v", s, err)
		}
		r.n += n
	}
	return r, nil
}

// checkRow checks that the gap-coded row b decodes, with minimal
// varints, to positions below k, and returns how many it holds. Nearly
// every gap is one byte, so that case skips the varint decoder, and the
// bound is checked on the last position only (positions ascend).
func checkRow(b []byte, k int) (int, error) {
	n, p := 0, int64(-1)
	for i := 0; i < len(b); n++ {
		if c := b[i]; c < 0x80 {
			p += int64(c) + 1
			i++
			continue
		}
		gap, w := binary.Uvarint(b[i:])
		switch {
		case w <= 0:
			return 0, fmt.Errorf("ends inside a varint")
		case b[i+w-1] == 0:
			return 0, fmt.Errorf("holds an overlong varint")
		case gap >= uint64(k):
			return 0, fmt.Errorf("names a position past %d", k)
		}
		p += int64(gap) + 1
		i += w
	}
	if p >= int64(k) {
		return 0, fmt.Errorf("names a position past %d", k)
	}
	return n, nil
}

// --- ThreeHop, version 1 ---
//
// Payload (all integers unsigned varints):
//
//	numSCC
//	numChains, then per chain: length, scc ids
//	per scc: |Lout|, entries as (cid, sid) pairs
//	per scc: |Lin|,  entries as (cid, sid) pairs
//
// An SCC is its Tarjan id, as graph.Condense numbers it, and a list
// entry its (chain id, sequence id) pair; the decoder translates both
// to positions through the condensation recomputed from the graph. A
// list's entries may come in any order: indexes written before the flat
// layout listed them in map order, and every later one in ascending
// position order. Each list is sorted on load, and a position named
// twice is refused, as is an empty chain. Every varint must be minimally
// encoded and nothing may follow the lists.

// unmarshalThreeHop revives a 3-hop index over g. The chain cover and
// entry lists are decoded straight into their flat arrays and reordered
// by position; only the condensation (cheap and deterministic) is
// recomputed.
func unmarshalThreeHop(g *graph.Graph, data []byte) (ContourIndex, error) {
	cond := graph.Condense(g)
	d := varintReader{buf: data}
	n := int(d.next())
	if n != cond.NumSCC() {
		return nil, fmt.Errorf("reach: snapshot has %d SCCs, graph condenses to %d", n, cond.NumSCC())
	}
	numChains := int(d.next())
	if numChains < 0 || numChains > n {
		return nil, fmt.Errorf("reach: snapshot has %d chains for %d SCCs", numChains, n)
	}
	h := &ThreeHop{g: g, chainOff: make([]int32, 1, numChains+1), chainAt: make([]int32, 0, n)}
	posOf := make([]int32, n) // per Tarjan id: its position
	for s := range posOf {
		posOf[s] = -1 // not on a chain yet
	}
	sccAt := make([]int32, 0, n) // per position: its Tarjan id
	for c := 0; c < numChains; c++ {
		// Chains are disjoint, so no chain is longer than what is left.
		ln, err := d.length(n - len(sccAt))
		if err != nil {
			return nil, err
		}
		if ln == 0 {
			// No build writes one, and a version-2 image cannot hold one.
			return nil, fmt.Errorf("reach: snapshot chain %d is empty", c)
		}
		for i := 0; i < ln; i++ {
			s := d.next()
			if s >= uint64(n) {
				return nil, fmt.Errorf("reach: snapshot chain references SCC %d of %d", s, n)
			}
			if posOf[s] != -1 {
				return nil, fmt.Errorf("reach: snapshot chains name SCC %d twice", s)
			}
			posOf[s] = int32(len(sccAt))
			sccAt = append(sccAt, int32(s))
			h.chainAt = append(h.chainAt, int32(c))
		}
		h.chainOff = append(h.chainOff, int32(len(sccAt)))
	}
	if covered := len(sccAt); covered != n {
		return nil, fmt.Errorf("reach: snapshot chains cover %d of %d SCCs", covered, n)
	}
	h.scc = cond.Renumber(posOf)
	var row []int32
	readLists := func() (gapRows, error) {
		lists := gapRows{off: make([]int32, n+1)} // per Tarjan id
		for s := 0; s < n; s++ {
			// Every entry takes at least two varint bytes, bounding any
			// declared length by the remaining payload.
			ln, err := d.length((len(d.buf) - d.off) / 2)
			if err != nil {
				return lists, err
			}
			row = row[:0]
			for i := 0; i < ln; i++ {
				cid, sid := d.next(), d.next()
				if cid >= uint64(numChains) {
					return lists, fmt.Errorf("reach: snapshot list entry references chain %d of %d", cid, numChains)
				}
				if chainLen := h.chainOff[cid+1] - h.chainOff[cid]; sid >= uint64(chainLen) {
					return lists, fmt.Errorf("reach: snapshot list entry references position %d on chain %d of length %d",
						sid, cid, chainLen)
				}
				row = append(row, h.chainOff[cid]+int32(sid))
			}
			slices.Sort(row)
			for i := 1; i < len(row); i++ {
				if row[i] == row[i-1] {
					return lists, fmt.Errorf("reach: snapshot list of SCC %d names position %d twice", s, row[i])
				}
			}
			lists.buf = appendGaps(lists.buf, row)
			lists.off[s+1] = int32(len(lists.buf))
			lists.n += ln
		}
		return lists.reorder(sccAt), nil
	}
	var err error
	if h.lout, err = readLists(); err != nil {
		return nil, err
	}
	if h.lin, err = readLists(); err != nil {
		return nil, err
	}
	if d.err != nil {
		return nil, fmt.Errorf("reach: truncated threehop snapshot")
	}
	if rest := len(d.buf) - d.off; rest != 0 {
		return nil, fmt.Errorf("reach: %d trailing bytes after threehop snapshot", rest)
	}
	return h, nil
}

// --- TC image ---
//
//	uvarint K                 SCCs
//	scc                       graph.SCCMap image: Comp, the cycle bits
//	rows                      K*ceil(K/64) uint64
//
// As in version 1, a row's bits past K are not checked: no query reads
// them, and they can only inflate IndexSize.

func (t *TC) appendImage(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(t.numSCC()))
	b = t.scc.AppendImage(b)
	return graph.AppendUint64s(b, t.rows)
}

// decodeTC revives a transitive-closure index over g from its image.
func decodeTC(g *graph.Graph, d *graph.Decoder) (ContourIndex, error) {
	k := d.Count(4) // an SCC takes at least the Comp entry of a member
	scc, err := graph.DecodeSCCMap(d, g, k)
	if err != nil {
		return nil, fmt.Errorf("reach: tc image: %w", err)
	}
	words := (k + 63) / 64
	t := &TC{g: g, scc: scc, words: words, rows: d.Uint64s(k * words)}
	if d.Err() != nil {
		return nil, fmt.Errorf("reach: tc image: %w", d.Err())
	}
	return t, nil
}

// --- TC, version 1 ---
//
// Payload: uvarint numSCC, then numSCC*words closure words (little
// endian), words = ceil(numSCC/64).

// unmarshalTC revives a transitive-closure index over g.
func unmarshalTC(g *graph.Graph, data []byte) (ContourIndex, error) {
	cond := graph.Condense(g)
	d := varintReader{buf: data}
	n := int(d.next())
	if d.err != nil || n != cond.NumSCC() {
		return nil, fmt.Errorf("reach: snapshot has %d SCCs, graph condenses to %d", n, cond.NumSCC())
	}
	words := (n + 63) / 64
	rest := d.buf[d.off:]
	if len(rest) != n*words*8 {
		return nil, fmt.Errorf("reach: tc snapshot has %d row bytes, want %d", len(rest), n*words*8)
	}
	t := &TC{g: g, scc: cond.SCCMap, words: words, rows: make([]uint64, n*words)}
	for i := range t.rows {
		t.rows[i] = binary.LittleEndian.Uint64(rest[i*8:])
	}
	return t, nil
}

// varintReader decodes a sequence of unsigned varints, remembering the
// first error so call sites can batch their checks.
type varintReader struct {
	buf []byte
	off int
	err error
}

func (d *varintReader) next() uint64 {
	if d.err != nil {
		return math.MaxUint64
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("reach: truncated varint at offset %d", d.off)
		return math.MaxUint64
	}
	if n > 1 && d.buf[d.off+n-1] == 0 {
		// A zero final group is padding binary.AppendUvarint never writes.
		d.err = fmt.Errorf("reach: overlong varint at offset %d", d.off)
		return math.MaxUint64
	}
	d.off += n
	return v
}

// length decodes a count that must fit in [0, max]; unlike next it
// fails eagerly so the value is safe to allocate from.
func (d *varintReader) length(max int) (int, error) {
	v := d.next()
	if d.err != nil {
		return 0, d.err
	}
	if v > uint64(max) {
		return 0, fmt.Errorf("reach: snapshot declares length %d, at most %d possible", v, max)
	}
	return int(v), nil
}

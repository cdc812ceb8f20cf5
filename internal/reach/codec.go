package reach

import (
	"encoding/binary"
	"fmt"
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

// --- TC image ---
//
//	uvarint K                 SCCs
//	scc                       graph.SCCMap image: Comp, the cycle bits
//	rows                      K*ceil(K/64) uint64
//
// A row's bits past K are not checked: no query reads them, and they
// can only inflate IndexSize.

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
	t := &TC{scc: scc, words: words, rows: d.Uint64s(k * words)}
	if d.Err() != nil {
		return nil, fmt.Errorf("reach: tc image: %w", d.Err())
	}
	return t, nil
}

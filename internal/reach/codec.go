package reach

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"gtpq/internal/graph"
)

// Codec (un)marshals a built index of one kind. Marshal serializes the
// index structure only — the graph is stored separately (snapshots
// carry both) and is handed back to Unmarshal, which must return an
// index answering identically to a fresh build without redoing
// construction work. The SCC condensation is intentionally not part of
// the payload: graph.Condense is deterministic for a fixed frozen
// graph and costs O(V+E), negligible next to chain covering or list
// sweeps, so Unmarshal recomputes it and keeps its graph.SCCMap (the
// 3-hop index renumbered by chain position).
type Codec struct {
	// Marshal serializes h (whose Kind matches the registration).
	Marshal func(h ContourIndex) ([]byte, error)
	// Unmarshal revives an index over g from data.
	Unmarshal func(g *graph.Graph, data []byte) (ContourIndex, error)
}

// RegisterCodec adds the (un)marshaling hooks for kind; like Register,
// it panics on duplicates.
func RegisterCodec(kind string, c Codec) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := codecs[kind]; dup {
		panic(fmt.Sprintf("reach: duplicate codec for index kind %q", kind))
	}
	codecs[kind] = c
}

// HasCodec reports whether kind has registered snapshot hooks.
func HasCodec(kind string) bool {
	registryMu.RLock()
	defer registryMu.RUnlock()
	_, ok := codecs[kind]
	return ok
}

// MarshalIndex serializes h using the codec registered for its kind.
func MarshalIndex(h ContourIndex) ([]byte, error) {
	registryMu.RLock()
	c, ok := codecs[h.Kind()]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("reach: index kind %q has no snapshot codec", h.Kind())
	}
	return c.Marshal(h)
}

// UnmarshalIndex revives a kind index over g from data without
// rebuilding it.
func UnmarshalIndex(kind string, g *graph.Graph, data []byte) (ContourIndex, error) {
	registryMu.RLock()
	c, ok := codecs[kind]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("reach: index kind %q has no snapshot codec", kind)
	}
	return c.Unmarshal(g, data)
}

func init() {
	RegisterCodec("threehop", Codec{
		Marshal: func(h ContourIndex) ([]byte, error) {
			th, ok := h.(*ThreeHop)
			if !ok {
				return nil, fmt.Errorf("reach: threehop codec got %T", h)
			}
			return th.MarshalBinary()
		},
		Unmarshal: unmarshalThreeHop,
	})
	RegisterCodec("tc", Codec{
		Marshal: func(h ContourIndex) ([]byte, error) {
			t, ok := h.(*TC)
			if !ok {
				return nil, fmt.Errorf("reach: tc codec got %T", h)
			}
			return t.MarshalBinary()
		},
		Unmarshal: unmarshalTC,
	})
}

// --- ThreeHop ---
//
// Payload (all integers unsigned varints):
//
//	numSCC
//	numChains, then per chain: length, scc ids
//	per scc: |Lout|, entries as (cid, sid) pairs
//	per scc: |Lin|,  entries as (cid, sid) pairs
//
// On disk an SCC is still its Tarjan id, as graph.Condense numbers it,
// and a list entry its (chain id, sequence id) pair; in memory both are
// the position chainOff[cid] + sid, and lists are gap-coded (gapRows).
// Both directions translate through the condensation recomputed from
// the graph, so snapshots written before any of these changes load
// unchanged. A list's entries may come in any order: indexes written
// before the flat layout listed them in map order under this same
// format, and every later one in ascending position order. Each list is
// sorted on load, and a position named twice is refused. Every varint
// must be minimally encoded and nothing may follow the lists, so an
// accepted payload re-marshals to itself once its lists are sorted.

// MarshalBinary serializes the chain cover and Lin/Lout lists.
func (h *ThreeHop) MarshalBinary() ([]byte, error) {
	n := len(h.chainAt)
	posOf, sccAt := h.tarjanIDs()
	buf := make([]byte, 0, 16+8*n+4*h.IndexSize())
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(h.NumChains()))
	for c := 1; c < len(h.chainOff); c++ {
		chain := sccAt[h.chainOff[c-1]:h.chainOff[c]]
		buf = binary.AppendUvarint(buf, uint64(len(chain)))
		for _, s := range chain {
			buf = binary.AppendUvarint(buf, uint64(s))
		}
	}
	appendLists := func(lists gapRows) {
		for _, pos := range posOf {
			b := lists.row(pos)
			buf = binary.AppendUvarint(buf, uint64(entries(b)))
			for i, p := 0, int32(-1); i < len(b); {
				p, i = nextGap(b, i, p)
				c := h.chainAt[p]
				buf = binary.AppendUvarint(buf, uint64(c))
				buf = binary.AppendUvarint(buf, uint64(p-h.chainOff[c]))
			}
		}
	}
	appendLists(h.lout)
	appendLists(h.lin)
	return buf, nil
}

// tarjanIDs recomputes the SCCs of h's graph and returns the map
// between their Tarjan ids and h's positions, both ways.
func (h *ThreeHop) tarjanIDs() (posOf, sccAt []int32) {
	posOf = make([]int32, len(h.chainAt))
	sccAt = make([]int32, len(h.chainAt))
	for v, s := range graph.Components(h.g) {
		p := h.scc.Comp[v]
		posOf[s], sccAt[p] = p, s
	}
	return posOf, sccAt
}

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

// --- TC ---
//
// Payload: uvarint numSCC, then numSCC*words closure words (little
// endian), words = ceil(numSCC/64).

// MarshalBinary serializes the closure bit matrix.
func (t *TC) MarshalBinary() ([]byte, error) {
	n := t.numSCC()
	buf := make([]byte, 0, 10+8*len(t.rows))
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, w := range t.rows {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf, nil
}

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

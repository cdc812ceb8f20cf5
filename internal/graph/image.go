package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Images. A snapshot (internal/snapshot) stores a frozen graph, and the
// reachability index built over it, as the arrays they keep resident,
// so that loading one is a copy and an O(V+E) validation instead of a
// rebuild. An array is written as fixed-width little-endian elements; a
// length the reader cannot derive from an earlier one is a uvarint
// before it. A string table is a uvarint count and, per string, a
// uvarint length and the bytes. The arrays a frozen graph derives from
// others (the in-adjacency, the label index, the attribute bitset and
// the name maps) are not written: DecodeImage rebuilds them with the
// counting passes Freeze uses.

// AppendImage appends the image of the frozen graph g to b:
//
//	uvarint n, uvarint E      node and edge counts
//	labelTab                  string table
//	labelOf                   n int32
//	out.off, out.val          n+1 and E int32
//	cross                     ceil(E/64) uint64
//	attrName, attrStr         string tables
//	uvarint A, uvarint M      nodes with attributes, attribute entries
//	attrNode, attrs.off       A and A+1 int32
//	attrs.val                 M × (name int32, str int32, num float64 bits)
func (g *Graph) AppendImage(b []byte) []byte {
	g.mustBeFrozen()
	n, m := len(g.labelOf), len(g.out.val)
	// An upper bound on the image size, so that b grows once.
	size := 40 + 4*(2*n+1) + 4*m + 8*len(g.cross) + 8*(len(g.attrNode)+1) + 16*len(g.attrs.val)
	for _, tab := range [][]string{g.labelTab, g.attrName, g.attrStr} {
		for _, s := range tab {
			size += binary.MaxVarintLen32 + len(s)
		}
	}
	b = slices.Grow(b, size)
	b = binary.AppendUvarint(b, uint64(n))
	b = binary.AppendUvarint(b, uint64(m))
	b = appendStrings(b, g.labelTab)
	b = AppendInt32s(b, g.labelOf)
	b = AppendInt32s(b, g.out.off)
	b = AppendInt32s(b, g.out.val)
	b = AppendUint64s(b, g.cross)
	b = appendStrings(b, g.attrName)
	b = appendStrings(b, g.attrStr)
	b = binary.AppendUvarint(b, uint64(len(g.attrNode)))
	b = binary.AppendUvarint(b, uint64(len(g.attrs.val)))
	b = AppendInt32s(b, g.attrNode)
	b = AppendInt32s(b, g.attrs.off)
	for _, e := range g.attrs.val {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.name))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.str))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.num))
	}
	return b
}

// DecodeImage reads the image AppendImage wrote and returns the frozen
// graph, with every array an exact-length copy that shares nothing with
// d's buffer. It accepts exactly the images of graphs AddNode, AddEdge
// and Freeze can build:
//   - both offset arrays start at 0, never decrease and end at their
//     payload's length, and every attribute row is non-empty;
//   - out rows ascend and name nodes below n;
//   - parallel edges share one cross bit, and no bit is set past E;
//   - attrNode ascends strictly below n; an attribute row's names ascend
//     strictly, its ids are in range, and a string value has num 0;
//   - each string table holds distinct strings, in order of first use,
//     every one of them used.
func DecodeImage(d *Decoder) (*Graph, error) {
	n, m := d.Count(8), d.Count(4) // a node takes 8 bytes of labelOf and out.off
	g := &Graph{frozen: true}
	g.labelTab = readStrings(d)
	g.labelOf = readInt32s[int32](d, n)
	g.out.off = readInt32s[int32](d, n+1)
	g.out.val = readInt32s[NodeID](d, m)
	g.cross = d.Uint64s((m + 63) / 64)
	g.attrName = readStrings(d)
	g.attrStr = readStrings(d)
	a, na := d.Count(8), d.Count(16)
	g.attrNode = readInt32s[NodeID](d, a)
	g.attrs.off = readInt32s[int32](d, a+1)
	if d.need(na, 16) {
		g.attrs.val = make([]attrEntry, na)
		for i := range g.attrs.val {
			b := d.buf[d.off+16*i:]
			g.attrs.val[i] = attrEntry{
				name: int32(binary.LittleEndian.Uint32(b)),
				str:  int32(binary.LittleEndian.Uint32(b[4:])),
				num:  math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
			}
		}
		d.off += 16 * na
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := g.validate(); err != nil {
		return nil, err
	}

	g.hasAttrs = newBitset(n)
	for _, v := range g.attrNode {
		g.hasAttrs.set(int32(v))
	}
	es := make([]edge, 0, m)
	for u := 0; u < n; u++ {
		for _, w := range g.out.row(int32(u)) {
			es = append(es, edge{u: NodeID(u), v: w})
		}
	}
	g.derive(es)
	return g, nil
}

// validate checks the invariants DecodeImage promises on the decoded
// arrays of g, and builds the inverses of its label and name tables.
func (g *Graph) validate() error {
	n, m := int32(len(g.labelOf)), int32(len(g.out.val))
	if err := firstUse(g.labelOf, len(g.labelTab), "label"); err != nil {
		return err
	}
	g.labelID, g.attrNameID = tableIDs(g.labelTab), tableIDs(g.attrName)
	for _, tab := range []struct {
		what string
		s    []string
		ids  map[string]int32
	}{
		{"label", g.labelTab, g.labelID},
		{"attribute name", g.attrName, g.attrNameID},
		{"attribute string", g.attrStr, tableIDs(g.attrStr)},
	} {
		if len(tab.ids) != len(tab.s) {
			return fmt.Errorf("graph image: a %s is listed twice", tab.what)
		}
	}

	if err := checkOffsets(g.out.off, m, false, "out"); err != nil {
		return err
	}
	for u := int32(0); u < n; u++ {
		lo, hi := g.out.off[u], g.out.off[u+1]
		for i := lo; i < hi; i++ {
			w := g.out.val[i]
			if w < 0 || int32(w) >= n {
				return fmt.Errorf("graph image: edge %d -> %d names a node outside [0, %d)", u, w, n)
			}
			if i == lo {
				continue
			}
			switch prev := g.out.val[i-1]; {
			case w < prev:
				return fmt.Errorf("graph image: out row of node %d is not ascending (%d after %d)", u, w, prev)
			case w == prev && g.cross.get(i) != g.cross.get(i-1):
				return fmt.Errorf("graph image: parallel edges %d -> %d differ in kind", u, w)
			}
		}
	}
	if m%64 != 0 && g.cross[len(g.cross)-1]>>(m%64) != 0 {
		return fmt.Errorf("graph image: cross bit set past edge %d", m)
	}

	if err := checkOffsets(g.attrs.off, int32(len(g.attrs.val)), true, "attribute"); err != nil {
		return err
	}
	for i, v := range g.attrNode {
		if v < 0 || int32(v) >= n || (i > 0 && v <= g.attrNode[i-1]) {
			return fmt.Errorf("graph image: attribute row %d names node %d: nodes must ascend strictly below %d", i, v, n)
		}
	}
	names := make([]int32, len(g.attrs.val))
	strs := make([]int32, 0, len(g.attrs.val))
	for r := int32(0); r < int32(len(g.attrNode)); r++ {
		for i, e := range g.attrs.row(r) {
			if e.name < 0 || int(e.name) >= len(g.attrName) || e.str < -1 || int(e.str) >= len(g.attrStr) {
				return fmt.Errorf("graph image: node %d: attribute ids (%d, %d) out of range", g.attrNode[r], e.name, e.str)
			}
			if i > 0 && g.attrName[e.name] <= g.attrName[g.attrs.row(r)[i-1].name] {
				return fmt.Errorf("graph image: node %d: attribute %q out of order", g.attrNode[r], g.attrName[e.name])
			}
			if e.str >= 0 {
				if math.Float64bits(e.num) != 0 {
					return fmt.Errorf("graph image: node %d: string attribute %q has a number", g.attrNode[r], g.attrName[e.name])
				}
				strs = append(strs, e.str)
			}
			names[g.attrs.off[r]+int32(i)] = e.name
		}
	}
	if err := firstUse(names, len(g.attrName), "attribute name"); err != nil {
		return err
	}
	return firstUse(strs, len(g.attrStr), "attribute string")
}

// checkOffsets checks that off starts at 0, never decreases (strictly
// increases when nonEmpty) and ends at the payload length m.
func checkOffsets(off []int32, m int32, nonEmpty bool, what string) error {
	if off[0] != 0 || off[len(off)-1] != m {
		return fmt.Errorf("graph image: %s offsets run from %d to %d, want 0 to %d", what, off[0], off[len(off)-1], m)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] || (nonEmpty && off[i] == off[i-1]) {
			return fmt.Errorf("graph image: %s offset %d is %d after %d", what, i, off[i], off[i-1])
		}
	}
	return nil
}

// firstUse checks that ids names a table of k entries in the order
// intern gives them: each id is at most one past the largest before it,
// and all k are used.
func firstUse(ids []int32, k int, what string) error {
	next := int32(0)
	for _, id := range ids {
		if id < 0 || id > next {
			return fmt.Errorf("graph image: %s id %d before id %d was used", what, id, next)
		}
		if id == next {
			next++
		}
	}
	if int(next) != k {
		return fmt.Errorf("graph image: %d %ss listed, %d used", k, what, next)
	}
	return nil
}

// tableIDs returns the inverse of a string table.
func tableIDs(tab []string) map[string]int32 {
	ids := make(map[string]int32)
	for i, s := range tab {
		ids[s] = int32(i)
	}
	return ids
}

// AppendImage appends m's image for k SCCs: Comp as int32s, then the
// cycle bits as ceil(k/64) uint64 words.
func (m *SCCMap) AppendImage(b []byte) []byte {
	return AppendUint64s(AppendInt32s(b, m.Comp), m.cyclic)
}

// DecodeSCCMap reads the image of an SCCMap over g with k SCCs. It
// checks that Comp renumbers the SCCs of g (graph.Components) one to
// one onto [0, k), and that the cycle bits are set for exactly the SCCs
// some edge stays inside.
func DecodeSCCMap(d *Decoder, g *Graph, k int) (SCCMap, error) {
	m := SCCMap{Comp: d.Int32s(g.N()), cyclic: d.Uint64s((k + 63) / 64)}
	if d.err != nil {
		return SCCMap{}, d.err
	}
	to := make([]int32, k) // per Tarjan id: its SCC in m, plus one
	used := newBitset(k)
	seen := 0
	for v, t := range Components(g) {
		s := m.Comp[v]
		if s < 0 || int(s) >= k || int(t) >= k {
			return SCCMap{}, fmt.Errorf("graph image: node %d in SCC %d of %d (Tarjan id %d)", v, s, k, t)
		}
		switch to[t] {
		case 0:
			if used.get(s) {
				return SCCMap{}, fmt.Errorf("graph image: SCC %d joins two components", s)
			}
			used.set(s)
			to[t] = s + 1
			seen++
		case s + 1:
		default:
			return SCCMap{}, fmt.Errorf("graph image: node %d in SCC %d, its component in SCC %d", v, s, to[t]-1)
		}
	}
	if seen != k {
		return SCCMap{}, fmt.Errorf("graph image: %d SCCs claimed, graph condenses to %d", k, seen)
	}
	cyclic := newBitset(k)
	for u, s := range m.Comp {
		for _, w := range g.Out(NodeID(u)) {
			if m.Comp[w] == s {
				cyclic.set(s)
			}
		}
	}
	if !slices.Equal(cyclic, m.cyclic) {
		return SCCMap{}, fmt.Errorf("graph image: cycle bits differ from the SCCs'")
	}
	return m, nil
}

// AppendInt32s appends the elements of s as 4 little-endian bytes each.
func AppendInt32s[T ~int32](b []byte, s []T) []byte {
	b = slices.Grow(b, 4*len(s))
	for _, x := range s {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

// AppendUint64s appends the elements of s as 8 little-endian bytes each.
func AppendUint64s(b []byte, s []uint64) []byte {
	b = slices.Grow(b, 8*len(s))
	for _, x := range s {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

func appendStrings(b []byte, tab []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(tab)))
	for _, s := range tab {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// Decoder reads an image front to back. The first error sticks: every
// later read returns a zero value, so a caller checks Err once after a
// run of reads. Every slice it returns is a copy of its input.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a Decoder reading b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first error a read ran into.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of bytes not read yet.
func (d *Decoder) Len() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("image: "+format, args...)
	}
}

// need reports whether n elements of size bytes each remain, failing
// the decoder when they do not.
func (d *Decoder) need(n, size int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || n > d.Len()/size {
		d.fail("%d elements of %d bytes at offset %d, %d bytes left", n, size, d.off, d.Len())
		return false
	}
	return true
}

// uvarint reads a minimally encoded uvarint.
func (d *Decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case n <= 0:
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	case n > 1 && d.buf[d.off+n-1] == 0:
		d.fail("overlong uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Count reads a uvarint count of elements taking at least size bytes
// each, and fails unless that many bytes remain: a count it returns is
// safe to allocate from.
func (d *Decoder) Count(size int) int {
	v := d.uvarint()
	if d.err == nil && v > uint64(d.Len()/size) {
		d.fail("count %d at offset %d exceeds the %d bytes left", v, d.off, d.Len())
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

// Bytes reads n bytes.
func (d *Decoder) Bytes(n int) []byte {
	if !d.need(n, 1) {
		return nil
	}
	b := slices.Clone(d.buf[d.off : d.off+n : d.off+n])
	d.off += n
	return b
}

// Int32s reads n int32s.
func (d *Decoder) Int32s(n int) []int32 { return readInt32s[int32](d, n) }

func readInt32s[T ~int32](d *Decoder, n int) []T {
	if !d.need(n, 4) {
		return nil
	}
	s, src := make([]T, n), d.buf[d.off:d.off+4*n]
	for i := range s {
		s[i] = T(binary.LittleEndian.Uint32(src[4*i:]))
	}
	d.off += 4 * n
	return s
}

// Uint64s reads n uint64s.
func (d *Decoder) Uint64s(n int) []uint64 {
	if !d.need(n, 8) {
		return nil
	}
	s, src := make([]uint64, n), d.buf[d.off:d.off+8*n]
	for i := range s {
		s[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
	d.off += 8 * n
	return s
}

func readStrings(d *Decoder) []string {
	tab := make([]string, d.Count(1))
	for i := range tab {
		n := d.Count(1)
		if d.err != nil {
			return nil
		}
		tab[i] = string(d.buf[d.off : d.off+n])
		d.off += n
	}
	return tab
}

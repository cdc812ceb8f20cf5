package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// image is a version-2 file taken apart field by field, so that a test
// can change one field and write the file back with a valid CRC.
type image struct {
	kind                        string
	labelTab, attrName, attrStr []string
	labelOf, outOff, outVal     []int32
	cross                       []uint64
	attrNode, attrOff           []int32
	attrs                       []attrEntry
	k                           int
	chainOff                    []int32     // threehop
	comp                        []int32     // node -> SCC
	cyclic                      []uint64    // per SCC
	lists                       [2]gapImage // threehop: Lout, Lin
	rows                        []uint64    // tc
	trailing                    []byte      // after the index, before the CRC
}

type attrEntry struct {
	name, str int32
	num       uint64
}

type gapImage struct {
	off []int32
	buf []byte
}

// row returns the positions list row s of l holds.
func (l gapImage) row(s int32) []int32 {
	var ps []int32
	b, p := l.buf[l.off[s]:l.off[s+1]], int32(-1)
	for len(b) > 0 {
		gap, w := binary.Uvarint(b)
		p += int32(gap) + 1
		ps = append(ps, p)
		b = b[w:]
	}
	return ps
}

func imageStrings(d *graph.Decoder) []string {
	tab := make([]string, d.Count(1))
	for i := range tab {
		tab[i] = string(d.Bytes(d.Count(1)))
	}
	return tab
}

// parseImage takes a version-2 file apart.
func parseImage(tb testing.TB, data []byte) *image {
	tb.Helper()
	d := graph.NewDecoder(data[len(Magic)+2 : len(data)-4])
	im := &image{kind: string(d.Bytes(d.Count(1)))}
	n, m := d.Count(8), d.Count(4)
	im.labelTab = imageStrings(d)
	im.labelOf, im.outOff, im.outVal = d.Int32s(n), d.Int32s(n+1), d.Int32s(m)
	im.cross = d.Uint64s((m + 63) / 64)
	im.attrName, im.attrStr = imageStrings(d), imageStrings(d)
	a, na := d.Count(8), d.Count(16)
	im.attrNode, im.attrOff = d.Int32s(a), d.Int32s(a+1)
	raw := d.Bytes(16 * na)
	for i := 0; i < na; i++ {
		e := raw[16*i:]
		im.attrs = append(im.attrs, attrEntry{
			name: int32(binary.LittleEndian.Uint32(e)),
			str:  int32(binary.LittleEndian.Uint32(e[4:])),
			num:  binary.LittleEndian.Uint64(e[8:]),
		})
	}
	im.k = d.Count(4)
	if im.kind == "threehop" {
		im.chainOff = d.Int32s(d.Count(4) + 1)
	}
	im.comp, im.cyclic = d.Int32s(n), d.Uint64s((im.k+63)/64)
	switch im.kind {
	case "threehop":
		for i := range im.lists {
			im.lists[i].off = d.Int32s(im.k + 1)
			im.lists[i].buf = d.Bytes(d.Count(1))
		}
	case "tc":
		im.rows = d.Uint64s(im.k * ((im.k + 63) / 64))
	}
	if d.Err() != nil || d.Len() != 0 {
		tb.Fatalf("parseImage: %v, %d bytes left", d.Err(), d.Len())
	}
	return im
}

// encode writes im back as a version-2 file with a valid CRC.
func (im *image) encode() []byte {
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	tab := func(b []byte, t []string) []byte {
		b = binary.AppendUvarint(b, uint64(len(t)))
		for _, s := range t {
			b = str(b, s)
		}
		return b
	}
	b := str(append([]byte(Magic), 2, 0), im.kind)
	b = binary.AppendUvarint(b, uint64(len(im.labelOf)))
	b = binary.AppendUvarint(b, uint64(len(im.outVal)))
	b = tab(b, im.labelTab)
	b = graph.AppendInt32s(b, im.labelOf)
	b = graph.AppendInt32s(b, im.outOff)
	b = graph.AppendInt32s(b, im.outVal)
	b = graph.AppendUint64s(b, im.cross)
	b = tab(tab(b, im.attrName), im.attrStr)
	b = binary.AppendUvarint(b, uint64(len(im.attrNode)))
	b = binary.AppendUvarint(b, uint64(len(im.attrs)))
	b = graph.AppendInt32s(b, im.attrNode)
	b = graph.AppendInt32s(b, im.attrOff)
	for _, e := range im.attrs {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.name))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.str))
		b = binary.LittleEndian.AppendUint64(b, e.num)
	}
	b = binary.AppendUvarint(b, uint64(im.k))
	if im.kind == "threehop" {
		b = binary.AppendUvarint(b, uint64(len(im.chainOff)-1))
		b = graph.AppendInt32s(b, im.chainOff)
	}
	b = graph.AppendUint64s(graph.AppendInt32s(b, im.comp), im.cyclic)
	for _, l := range im.lists {
		if l.off != nil {
			b = graph.AppendInt32s(b, l.off)
			b = append(binary.AppendUvarint(b, uint64(len(l.buf))), l.buf...)
		}
	}
	b = graph.AppendUint64s(b, im.rows)
	b = append(b, im.trailing...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// saveV1 returns the version-1 file of g and h, written as Save wrote it
// before version 2 replaced it: the input the version-1 loader is
// checked on. The index payload is translated from h's image, so it
// names each SCC by its Tarjan id and each list entry by its
// (chain id, sequence id) pair, though the loader only skips it.
func saveV1(tb testing.TB, g *graph.Graph, h reach.ContourIndex) []byte {
	tb.Helper()
	var v2 bytes.Buffer
	if err := Save(&v2, g, h); err != nil {
		tb.Fatal(err)
	}
	im := parseImage(tb, v2.Bytes())
	uv := binary.AppendUvarint
	str := func(b []byte, s string) []byte { return append(uv(b, uint64(len(s))), s...) }
	b := str(append([]byte(Magic), 1, 0), h.Kind())
	b = uv(b, uint64(g.N()))
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		b = str(b, g.Label(v))
		keys := g.AttrKeys(v)
		b = uv(b, uint64(len(keys)))
		for _, k := range keys {
			val, _ := g.Attr(v, k)
			b = str(b, k)
			if val.IsNum {
				b = binary.LittleEndian.AppendUint64(append(b, 1), math.Float64bits(val.Num))
			} else {
				b = str(append(b, 0), val.Str)
			}
		}
	}
	var tree, cross []uint64
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		for _, w := range g.Out(v) {
			if g.EdgeKindOf(v, w) == graph.CrossEdge {
				cross = append(cross, uint64(v), uint64(w))
			} else {
				tree = append(tree, uint64(v), uint64(w))
			}
		}
	}
	for _, es := range [][]uint64{tree, cross} {
		b = uv(b, uint64(len(es)/2))
		for _, x := range es {
			b = uv(b, x)
		}
	}
	blob := im.indexV1(g)
	return append(uv(b, uint64(len(blob))), blob...)
}

// indexV1 returns the version-1 index payload of im over g.
func (im *image) indexV1(g *graph.Graph) []byte {
	b := binary.AppendUvarint(nil, uint64(im.k))
	if im.kind == "tc" {
		return graph.AppendUint64s(b, im.rows)
	}
	posOf, sccAt := make([]int32, im.k), make([]int32, im.k)
	for v, s := range graph.Components(g) {
		posOf[s], sccAt[im.comp[v]] = im.comp[v], s
	}
	chainAt := make([]int32, im.k)
	b = binary.AppendUvarint(b, uint64(len(im.chainOff)-1))
	for c := 1; c < len(im.chainOff); c++ {
		b = binary.AppendUvarint(b, uint64(im.chainOff[c]-im.chainOff[c-1]))
		for p := im.chainOff[c-1]; p < im.chainOff[c]; p++ {
			b = binary.AppendUvarint(b, uint64(sccAt[p]))
			chainAt[p] = int32(c - 1)
		}
	}
	for _, l := range im.lists {
		for _, pos := range posOf {
			row := l.row(pos)
			b = binary.AppendUvarint(b, uint64(len(row)))
			for _, p := range row {
				c := chainAt[p]
				b = binary.AppendUvarint(b, uint64(c))
				b = binary.AppendUvarint(b, uint64(p-im.chainOff[c]))
			}
		}
	}
	return b
}

// rulesGraph is a small graph with every feature a validation rule is
// about: string and number attributes, a tree and a cross edge joining
// one pair, a two-node cycle, a self-loop, and several chains.
func rulesGraph() *graph.Graph {
	g := graph.New(6, 10)
	g.AddNode("a", graph.Attrs{"name": graph.StrV("x"), "year": graph.NumV(1)})
	g.AddNode("b", graph.Attrs{"name": graph.StrV("y")})
	g.AddNode("a", nil)
	g.AddNode("c", graph.Attrs{"year": graph.NumV(2)})
	g.AddNode("b", nil)
	g.AddNode("d", nil)
	g.AddEdge(0, 1)
	g.AddCrossEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 5)
	g.AddEdge(1, 3)
	g.AddEdge(3, 1)
	g.AddEdge(2, 4)
	g.AddEdge(4, 4)
	g.AddEdge(2, 5)
	g.AddCrossEdge(5, 3)
	g.Freeze()
	return g
}

// TestLoadRejectsEachRule changes one field of a valid image per case,
// writes it back with a valid CRC (but for the CRC case) and expects
// Load to refuse it, naming the rule the change breaks.
func TestLoadRejectsEachRule(t *testing.T) {
	g := rulesGraph()
	valid := map[string][]byte{}
	for _, kind := range []string{"threehop", "tc"} {
		h, err := reach.Build(kind, g)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, g, h); err != nil {
			t.Fatal(err)
		}
		valid[kind] = buf.Bytes()
		if got := parseImage(t, buf.Bytes()).encode(); !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("%s: parseImage and encode do not round-trip", kind)
		}
	}
	th := parseImage(t, valid["threehop"])
	if len(th.lists[0].buf) == 0 || len(th.lists[1].buf) == 0 || len(th.chainOff) < 3 {
		t.Fatalf("rules graph has %d chains and lists of %d and %d bytes: too simple",
			len(th.chainOff)-1, len(th.lists[0].buf), len(th.lists[1].buf))
	}
	pos := func(im *image, v int) int32 { return im.comp[v] }
	// lastRow is the last non-empty row of list family l.
	lastRow := func(im *image, l int) int32 {
		off := im.lists[l].off
		for s := int32(im.k - 1); ; s-- {
			if off[s+1] > off[s] {
				return s
			}
		}
	}
	cases := []struct {
		name, kind, want string
		mutate           func(im *image)
	}{
		{"out offsets decrease", "threehop", "out offset", func(im *image) {
			im.outOff[1], im.outOff[2] = im.outOff[2], im.outOff[1]
		}},
		{"out offsets stop short of the payload", "threehop", "out offsets run", func(im *image) {
			im.outOff[len(im.outOff)-1]--
		}},
		{"attribute row empty", "threehop", "attribute offset", func(im *image) { im.attrOff[1] = 0 }},
		{"list offsets run past the payload", "threehop", "list offset", func(im *image) {
			im.lists[0].off[im.k-1] = int32(len(im.lists[0].buf)) + 1
		}},
		{"out row descends", "threehop", "not ascending", func(im *image) {
			lo := im.outOff[2]
			im.outVal[lo], im.outVal[lo+1] = im.outVal[lo+1], im.outVal[lo]
		}},
		{"edge target out of range", "threehop", "outside", func(im *image) {
			im.outVal[len(im.outVal)-1] = int32(len(im.labelOf))
		}},
		{"parallel edges differ in kind", "threehop", "differ in kind", func(im *image) { im.cross[0] &^= 1 }},
		{"cross bit past E", "threehop", "past edge", func(im *image) { im.cross[0] |= 1 << len(im.outVal) }},
		{"attribute nodes not ascending", "threehop", "ascend strictly", func(im *image) {
			im.attrNode[0], im.attrNode[1] = im.attrNode[1], im.attrNode[0]
		}},
		{"attribute names out of order", "threehop", "out of order", func(im *image) {
			im.attrs[0], im.attrs[1] = im.attrs[1], im.attrs[0]
		}},
		{"attribute name id out of range", "threehop", "out of range", func(im *image) {
			im.attrs[0].name = int32(len(im.attrName))
		}},
		{"attribute string id out of range", "threehop", "out of range", func(im *image) { im.attrs[0].str = -2 }},
		{"string attribute with a number", "threehop", "has a number", func(im *image) {
			im.attrs[0].num = math.Float64bits(1)
		}},
		{"label listed twice", "threehop", "listed twice", func(im *image) { im.labelTab[1] = im.labelTab[0] }},
		{"attribute name listed twice", "threehop", "listed twice", func(im *image) { im.attrName[1] = im.attrName[0] }},
		{"attribute string listed twice", "threehop", "listed twice", func(im *image) { im.attrStr[1] = im.attrStr[0] }},
		{"labels out of first-use order", "threehop", "before id", func(im *image) {
			for v, l := range im.labelOf {
				switch l {
				case 0, 1:
					im.labelOf[v] = 1 - l
				}
			}
		}},
		{"label unused", "threehop", "used", func(im *image) { im.labelTab = append(im.labelTab, "unused") }},
		{"empty chain", "threehop", "chain 0 spans", func(im *image) { im.chainOff = append([]int32{0}, im.chainOff...) }},
		{"chains stop short of K", "threehop", "chains cover", func(im *image) { im.chainOff[len(im.chainOff)-1]-- }},
		{"node on a position past K", "threehop", "in SCC", func(im *image) { im.comp[0] = int32(im.k) }},
		{"two SCCs on one position", "threehop", "joins two components", func(im *image) { im.comp[5] = pos(im, 2) }},
		{"one SCC on two positions", "threehop", "its component in", func(im *image) { im.comp[3] = pos(im, 0) }},
		{"self-loop without its cycle bit", "threehop", "cycle bits", func(im *image) {
			im.cyclic[0] &^= 1 << pos(im, 4)
		}},
		{"acyclic SCC with a cycle bit", "threehop", "cycle bits", func(im *image) {
			im.cyclic[0] |= 1 << pos(im, 0)
		}},
		{"list row ends inside a varint", "threehop", "ends inside a varint", func(im *image) {
			l := im.lists[0]
			l.buf[l.off[lastRow(im, 0)+1]-1] |= 0x80
		}},
		{"overlong varint", "threehop", "overlong", func(im *image) {
			l := &im.lists[1]
			s := lastRow(im, 1)
			end := l.off[s+1]
			tail := l.buf[end:]
			l.buf = append(append(l.buf[:end-1:end-1], l.buf[end-1]|0x80, 0), tail...)
			for i := s + 1; i < int32(len(l.off)); i++ {
				l.off[i]++
			}
		}},
		{"list position past K", "threehop", "past", func(im *image) {
			l := im.lists[0]
			l.buf[l.off[lastRow(im, 0)+1]-1] = byte(im.k)
		}},
		{"bytes trail the index", "threehop", "trail", func(im *image) { im.trailing = []byte{0} }},
		{"tc SCC map not a renumbering", "tc", "joins two components", func(im *image) { im.comp[5] = im.comp[2] }},
	}
	for _, c := range cases {
		im := parseImage(t, valid[c.kind])
		c.mutate(im)
		data := im.encode()
		if bytes.Equal(data, valid[c.kind]) {
			t.Errorf("%s: the change left the image as it was", c.name)
			continue
		}
		_, _, err := Load(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Load returned %v, want an error containing %q", c.name, err, c.want)
		}
	}
	bad := bytes.Clone(valid["threehop"])
	bad[len(bad)/2] ^= 1
	if _, _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "CRC-32C") {
		t.Errorf("a flipped bit under the CRC: Load returned %v", err)
	}
}

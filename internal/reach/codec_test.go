package reach

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gtpq/internal/arxiv"
	"gtpq/internal/graph"
	"gtpq/internal/xmark"
)

// goldenGraphs are the two fixed graphs whose 3-hop payloads are pinned.
func goldenGraphs() (arxivTiny, xmark50 *graph.Graph) {
	ax, _ := arxiv.Generate(arxiv.Config{
		Papers: 500, Authors: 250, AuthorsPerPaper: 2.5, CitesPerPaper: 1.8,
		Window: 100, PaperLabels: 60, AuthorLabels: 40, Seed: 11,
	})
	xm, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 50, Seed: 7})
	return ax, xm
}

// TestThreeHopSnapshotGolden pins the version-1 3-hop payload: the
// SHA-256 of marshalV1 for two fixed graphs, computed before list
// entries became in-memory chain positions, and unchanged since those
// became varint gaps and since version 2 replaced the writer. The
// oracle therefore writes what every version-1 .snap holds.
func TestThreeHopSnapshotGolden(t *testing.T) {
	ax, xm := goldenGraphs()
	for _, c := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"arxiv tiny", ax, "7b6aa930f46696cc9019963febfdf6429dc725da2dc0af2ffc08533a53aca5b7"},
		{"xmark 50", xm, "3454fbb6d75ce85dc25f0fab88caaf401ef20223a4e2e63a2b23796f8222324e"},
	} {
		data := marshalV1(NewThreeHop(c.g))
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != c.want {
			t.Errorf("%s: marshalV1 SHA-256 = %s, want %s", c.name, got, c.want)
		}
	}
}

// uvarints encodes vs the way the codecs do.
func uvarints(vs ...uint64) []byte {
	var buf []byte
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// pathAB is the two-node graph a→b (two trivial SCCs).
func pathAB() *graph.Graph {
	g := graph.New(2, 1)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a, b)
	g.Freeze()
	return g
}

// dupSCCPayload is a 3-hop payload over pathAB whose single chain names
// SCC 0 twice: n=2, one chain [0, 0], all lists empty.
var dupSCCPayload = uvarints(2, 1, 2, 0, 0, 0, 0, 0, 0)

// star3 is the graph a→b, a→c, a→d: three chains, so the Lout list
// of a's SCC holds two entries.
func star3() *graph.Graph {
	g := graph.New(4, 3)
	a := g.AddNode("a", nil)
	for _, l := range []string{"b", "c", "d"} {
		g.AddEdge(a, g.AddNode(l, nil))
	}
	g.Freeze()
	return g
}

// star3Payload is the 3-hop payload of star3 with the two entries of
// SCC 3's Lout list given by lout: n=4, chains [1] [2] [3 0], Lout
// empty but for SCC 3, Lin (2,0) for SCCs 1 and 2. Built by the
// codec, lout is (0,0), (1,0).
func star3Payload(lout ...uint64) []byte {
	vs := []uint64{4, 3, 1, 1, 1, 2, 2, 3, 0, 0, 0, 0, 2}
	vs = append(vs, lout...)
	return uvarints(append(vs, 0, 1, 2, 0, 1, 2, 0, 0)...)
}

// TestUnmarshalThreeHopRejectsBadPayloads checks malformed payloads
// are refused, among them a list naming one position twice, which no
// index holds and a row of position gaps cannot store.
func TestUnmarshalThreeHopRejectsBadPayloads(t *testing.T) {
	ab, star := pathAB(), star3()
	valid, starValid := marshalV1(NewThreeHop(ab)), marshalV1(NewThreeHop(star))
	if want := star3Payload(0, 0, 1, 0); !bytes.Equal(starValid, want) {
		t.Fatalf("star3 marshals to % x, want % x", starValid, want)
	}
	for g, data := range map[*graph.Graph][]byte{ab: valid, star: starValid} {
		if _, err := unmarshalThreeHop(g, data); err != nil {
			t.Fatalf("valid payload % x rejected: %v", data, err)
		}
	}
	for name, c := range map[string]struct {
		g    *graph.Graph
		data []byte
	}{
		"SCC named twice":     {ab, dupSCCPayload},
		"empty chain":         {ab, uvarints(2, 2, 2, 1, 0, 0, 0, 0, 0, 0)},
		"trailing byte":       {ab, append(bytes.Clone(valid), 0)},
		"overlong varint":     {ab, append([]byte{0x82, 0x00}, valid[1:]...)}, // n=2 in two bytes
		"repeated list entry": {star, star3Payload(0, 0, 0, 0)},
	} {
		if _, err := unmarshalThreeHop(c.g, c.data); err == nil {
			t.Errorf("%s: payload % x accepted", name, c.data)
		}
	}
}

// shuffledPayload is h's 3-hop payload with the entries of every list
// in random order, as indexes written before lists were sorted by
// chain id stored them.
func shuffledPayload(h *ThreeHop, r *rand.Rand) []byte {
	posOf, sccAt := tarjanIDs(h)
	vs := []uint64{uint64(len(posOf)), uint64(h.NumChains())}
	for c := 1; c < len(h.chainOff); c++ {
		chain := sccAt[h.chainOff[c-1]:h.chainOff[c]]
		vs = append(vs, uint64(len(chain)))
		for _, s := range chain {
			vs = append(vs, uint64(s))
		}
	}
	for _, lists := range []gapRows{h.lout, h.lin} {
		for _, pos := range posOf {
			var row []int32
			for b, i, p := lists.row(pos), 0, int32(-1); i < len(b); {
				p, i = nextGap(b, i, p)
				row = append(row, p)
			}
			r.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
			vs = append(vs, uint64(len(row)))
			for _, p := range row {
				c := h.chainAt[p]
				vs = append(vs, uint64(c), uint64(p-h.chainOff[c]))
			}
		}
	}
	return uvarints(vs...)
}

// TestUnmarshalThreeHopAcceptsAnyListOrder checks that a version-1
// payload whose lists are not in ascending position order still loads:
// indexes built before the flat layout wrote them in map order. Such a
// payload must decode to the index a fresh build gives, so it
// re-marshals to the sorted payload and answers and counts every probe
// alike.
func TestUnmarshalThreeHopAcceptsAnyListOrder(t *testing.T) {
	star := star3()
	h, err := unmarshalThreeHop(star, star3Payload(1, 0, 0, 0))
	if err != nil {
		t.Fatalf("star3 with a descending list rejected: %v", err)
	}
	if got, want := marshalV1(h), star3Payload(0, 0, 1, 0); !bytes.Equal(got, want) {
		t.Errorf("star3 with a descending list re-marshals to % x, want % x", got, want)
	}
	ax, xm := goldenGraphs()
	r := rand.New(rand.NewSource(17))
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"arxiv tiny", ax}, {"xmark 50", xm}} {
		fresh := NewThreeHop(c.g)
		want := marshalV1(fresh)
		shuffled := shuffledPayload(fresh, r)
		if bytes.Equal(shuffled, want) {
			t.Fatalf("%s: shuffling left every list in order", c.name)
		}
		decoded, err := unmarshalThreeHop(c.g, shuffled)
		if err != nil {
			t.Fatalf("%s: shuffled payload rejected: %v", c.name, err)
		}
		if !bytes.Equal(marshalV1(decoded), want) {
			t.Errorf("%s: shuffled payload does not re-marshal to the built one", c.name)
		}
		var got, exp Stats
		for i := 0; i < 2000; i++ {
			u, v := graph.NodeID(r.Intn(c.g.N())), graph.NodeID(r.Intn(c.g.N()))
			if decoded.ReachesSt(u, v, &got) != fresh.ReachesSt(u, v, &exp) {
				t.Fatalf("%s: %d -> %d answers differ from a fresh build", c.name, u, v)
			}
		}
		if got != exp {
			t.Errorf("%s: probes cost %+v on the decoded index, %+v on a fresh build", c.name, got, exp)
		}
	}
}

// marshalV1 returns the version-1 payload of h, written as the codec
// wrote it before version 2 replaced it: the oracle the version-1
// decoder is checked against.
func marshalV1(h ContourIndex) []byte {
	switch h := h.(type) {
	case *ThreeHop:
		posOf, sccAt := tarjanIDs(h)
		buf := binary.AppendUvarint(nil, uint64(len(posOf)))
		buf = binary.AppendUvarint(buf, uint64(h.NumChains()))
		for c := 1; c < len(h.chainOff); c++ {
			chain := sccAt[h.chainOff[c-1]:h.chainOff[c]]
			buf = binary.AppendUvarint(buf, uint64(len(chain)))
			for _, s := range chain {
				buf = binary.AppendUvarint(buf, uint64(s))
			}
		}
		for _, lists := range []gapRows{h.lout, h.lin} {
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
		return buf
	case *TC:
		buf := binary.AppendUvarint(nil, uint64(h.numSCC()))
		for _, w := range h.rows {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		return buf
	}
	panic(fmt.Sprintf("marshalV1: %T", h))
}

// tarjanIDs recomputes the SCCs of h's graph and returns the map
// between their Tarjan ids and h's positions, both ways.
func tarjanIDs(h *ThreeHop) (posOf, sccAt []int32) {
	posOf = make([]int32, len(h.chainAt))
	sccAt = make([]int32, len(h.chainAt))
	for v, s := range graph.Components(h.g) {
		p := h.scc.Comp[v]
		posOf[s], sccAt[p] = p, s
	}
	return posOf, sccAt
}

// image returns the version-2 image of h.
func image(t testing.TB, h ContourIndex) []byte {
	t.Helper()
	data, err := AppendIndex(nil, h)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// decodeImage revives a kind index over g from the whole of data.
func decodeImage(kind string, g *graph.Graph, data []byte) (ContourIndex, error) {
	d := graph.NewDecoder(data)
	h, err := DecodeIndex(kind, g, d)
	if err == nil && d.Len() != 0 {
		err = fmt.Errorf("%d bytes trail the image", d.Len())
	}
	return h, err
}

// TestGapRowsRoundTrip checks the row encoding at the varint width
// boundaries: every row, empty ones included, decodes to the positions
// it was built from, also after reorder reverses the rows, and the
// entry count is right.
func TestGapRowsRoundTrip(t *testing.T) {
	rows := [][]int32{
		{0},
		{},
		{127},
		{128},
		{0, 128, 129, 16512, 16513, 2_113_664, 2_113_665, 1<<31 - 1},
		{5, 6, 7},
	}
	enc := make([][]byte, len(rows))
	want := 0
	reversed := make([]int32, len(rows))
	for i, r := range rows {
		enc[i] = appendGaps(nil, r)
		want += len(r)
		reversed[len(rows)-1-i] = int32(i)
	}
	packed := packRows(enc)
	for name, c := range map[string]struct {
		rows  gapRows
		order []int32 // row i holds rows[order[i]]
	}{
		"packed":   {packed, []int32{0, 1, 2, 3, 4, 5}},
		"reversed": {packed.reorder(reversed), reversed},
	} {
		if c.rows.n != want {
			t.Errorf("%s: counted %d entries, want %d", name, c.rows.n, want)
		}
		for i, r := range c.order {
			var got []int32
			b := c.rows.row(int32(i))
			for j, p := 0, int32(-1); j < len(b); {
				p, j = nextGap(b, j, p)
				got = append(got, p)
			}
			if !slices.Equal(got, rows[r]) {
				t.Errorf("%s: row %d decodes to %v from % x, want %v", name, i, got, b, rows[r])
			}
		}
	}
}

// TestSeekCrossesEmptyRuns checks seek against a row-by-row scan, for
// every row and every bound on either side of it, over rows whose empty
// runs have lengths 0 to 9, at the ends as well as between rows that
// hold entries.
func TestSeekCrossesEmptyRuns(t *testing.T) {
	var enc [][]byte
	for run := 0; run < 10; run++ {
		enc = append(enc, make([][]byte, run)...)
		enc = append(enc, appendGaps(nil, []int32{int32(run)}))
	}
	enc = append(enc, make([][]byte, 7)...)
	r := packRows(enc)
	k := int32(len(enc))
	for row := int32(0); row < k; row++ {
		for bound := int32(-1); bound <= k; bound++ {
			step := int32(1)
			if bound < row {
				step = -1
			}
			want := row
			for want != bound && len(r.row(want)) == 0 {
				want += step
			}
			if got := r.seek(row, bound); got != want {
				t.Fatalf("seek(%d, %d) = %d, want %d", row, bound, got, want)
			}
		}
	}
}

// fuzzGraphs are the graphs the codec fuzz targets decode against,
// picked by the input's first argument: pathAB, which the duplicate-SCC
// payload names, small random graphs, cycles and self-loops included,
// and star3, which the unordered-list payloads name.
func fuzzGraphs() []*graph.Graph {
	r := rand.New(rand.NewSource(601))
	return []*graph.Graph{pathAB(), randDAG(r, 8, 14), randDigraph(r, 10, 18), randDigraph(r, 16, 30), star3()}
}

// fuzzCodec seeds f with each graph's version-1 payload (plus extra,
// keyed by graph) and checks every payload the version-1 decoder
// accepts: it re-marshals to a payload that is accepted too and
// re-marshals to itself (a 3-hop payload's lists may come in any order
// and are written back sorted); its version-2 image decodes and
// re-encodes to itself; it passes check (when given); and every query
// on it returns without panicking.
func fuzzCodec(f *testing.F, kind string, extra map[uint8][]byte, check func(*testing.T, ContourIndex)) {
	gs := fuzzGraphs()
	for i, g := range gs {
		h, err := Build(kind, g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), marshalV1(h))
	}
	for i, data := range extra {
		f.Add(i, data)
	}
	f.Fuzz(func(t *testing.T, gi uint8, data []byte) {
		g := gs[int(gi)%len(gs)]
		h, err := DecodeIndexV1(kind, g, data)
		if err != nil {
			return
		}
		again := marshalV1(h)
		h2, err := DecodeIndexV1(kind, g, again)
		if err != nil {
			t.Fatalf("accepted payload % x re-marshals to % x, which is rejected: %v", data, again, err)
		}
		if again2 := marshalV1(h2); !bytes.Equal(again2, again) {
			t.Fatalf("accepted payload % x re-marshals to % x, which re-marshals to % x", data, again, again2)
		}
		img := image(t, h)
		h3, err := decodeImage(kind, g, img)
		if err != nil {
			t.Fatalf("accepted payload % x has an image that does not decode: %v", data, err)
		}
		if img2 := image(t, h3); !bytes.Equal(img2, img) {
			t.Fatalf("accepted payload % x: its image % x re-encodes to % x", data, img, img2)
		}
		if check != nil {
			check(t, h)
		}
		var st Stats
		all := make([]graph.NodeID, g.N())
		for u := range all {
			all[u] = graph.NodeID(u)
		}
		cp, cs := h.PredContour(all, &st), h.SuccContour(all, &st)
		for u := range all {
			for v := range all {
				h.ReachesSt(graph.NodeID(u), graph.NodeID(v), &st)
			}
			cp.Probe(graph.NodeID(u), &st)
			cs.Probe(graph.NodeID(u), &st)
		}
	})
}

func FuzzUnmarshalThreeHop(f *testing.F) {
	extra := map[uint8][]byte{0: dupSCCPayload, 4: star3Payload(1, 0, 0, 0)}
	fuzzCodec(f, "threehop", extra, func(t *testing.T, ci ContourIndex) {
		h := ci.(*ThreeHop)
		checkPositionLayout(t, h)
		n := int32(len(h.chainAt))
		decoded := 0
		for _, lists := range []gapRows{h.lout, h.lin} {
			for s := int32(0); s < n; s++ {
				for b, i, p := lists.row(s), 0, int32(-1); i < len(b); {
					prev := p
					p, i = nextGap(b, i, p)
					if p <= prev || p >= n {
						t.Fatalf("list of position %d decodes position %d after %d, of %d", s, p, prev, n)
					}
					decoded++
				}
			}
		}
		if decoded != h.IndexSize() {
			t.Fatalf("lists decode %d entries, IndexSize says %d", decoded, h.IndexSize())
		}
	})
}

// checkPositionLayout checks that h names SCCs by chain position: the
// chains are contiguous position ranges that tile [0, K) in order,
// chainAt agrees with them, and Comp and the cycle bits are the
// condensation's renumbered one to one, so the cover is disjoint.
func checkPositionLayout(t *testing.T, h *ThreeHop) {
	t.Helper()
	cond := graph.Condense(h.g)
	n := int32(cond.NumSCC())
	if len(h.chainAt) != int(n) || h.chainOff[0] != 0 || h.chainOff[len(h.chainOff)-1] != n {
		t.Fatalf("%d positions, chain offsets %v, for %d SCCs", len(h.chainAt), h.chainOff, n)
	}
	for c := 1; c < len(h.chainOff); c++ {
		for p := h.chainOff[c-1]; p < h.chainOff[c]; p++ {
			if h.chainAt[p] != int32(c-1) {
				t.Fatalf("position %d of chain %d has chainAt %d", p, c-1, h.chainAt[p])
			}
		}
	}
	sccAt := make([]int32, n) // per position: its Tarjan id + 1
	posOf := make([]int32, n) // per Tarjan id: its position + 1
	for v, s := range cond.Comp {
		p := h.scc.Comp[v]
		if p < 0 || p >= n {
			t.Fatalf("node %d at position %d of %d", v, p, n)
		}
		if (sccAt[p] != 0 && sccAt[p] != s+1) || (posOf[s] != 0 && posOf[s] != p+1) {
			t.Fatalf("node %d: SCC %d at position %d, but SCC %d or position %d seen with it", v, s, p, sccAt[p]-1, posOf[s]-1)
		}
		sccAt[p], posOf[s] = s+1, p+1
		if h.scc.Nontrivial(p) != cond.Nontrivial(s) {
			t.Fatalf("position %d has cycle bit %v, its SCC %d has %v", p, h.scc.Nontrivial(p), s, cond.Nontrivial(s))
		}
	}
}

func FuzzUnmarshalTC(f *testing.F) {
	fuzzCodec(f, "tc", nil, nil)
}

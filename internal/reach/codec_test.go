package reach

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"gtpq/internal/arxiv"
	"gtpq/internal/graph"
	"gtpq/internal/xmark"
)

// TestThreeHopSnapshotGolden pins the on-disk 3-hop payload: the
// SHA-256 of MarshalBinary for two fixed graphs, computed before list
// entries became in-memory chain positions. A .snap written by that
// layout therefore still decodes to the same index.
func TestThreeHopSnapshotGolden(t *testing.T) {
	ax, _ := arxiv.Generate(arxiv.Config{
		Papers: 500, Authors: 250, AuthorsPerPaper: 2.5, CitesPerPaper: 1.8,
		Window: 100, PaperLabels: 60, AuthorLabels: 40, Seed: 11,
	})
	xm, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 50, Seed: 7})
	for _, c := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"arxiv tiny", ax, "7b6aa930f46696cc9019963febfdf6429dc725da2dc0af2ffc08533a53aca5b7"},
		{"xmark 50", xm, "3454fbb6d75ce85dc25f0fab88caaf401ef20223a4e2e63a2b23796f8222324e"},
	} {
		data, err := NewThreeHop(c.g).MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != c.want {
			t.Errorf("%s: MarshalBinary SHA-256 = %s, want %s", c.name, got, c.want)
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

func TestUnmarshalThreeHopRejectsBadPayloads(t *testing.T) {
	g := pathAB()
	valid, err := NewThreeHop(g).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unmarshalThreeHop(g, valid); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	for name, data := range map[string][]byte{
		"SCC named twice": dupSCCPayload,
		"trailing byte":   append(bytes.Clone(valid), 0),
		"overlong varint": append([]byte{0x82, 0x00}, valid[1:]...), // n=2 in two bytes
	} {
		if _, err := unmarshalThreeHop(g, data); err == nil {
			t.Errorf("%s: payload % x accepted", name, data)
		}
	}
}

// fuzzGraphs are the graphs the codec fuzz targets decode against,
// picked by the input's first argument: pathAB, which the duplicate-SCC
// payload names, and small random graphs, cycles and self-loops included.
func fuzzGraphs() []*graph.Graph {
	r := rand.New(rand.NewSource(601))
	return []*graph.Graph{pathAB(), randDAG(r, 8, 14), randDigraph(r, 10, 18), randDigraph(r, 16, 30)}
}

// fuzzCodec seeds f with each graph's marshaled index (plus extra, keyed
// by graph) and checks every payload the codec accepts: it re-marshals
// to the same bytes, passes check (when given), and every query on it
// returns without panicking.
func fuzzCodec(f *testing.F, kind string, extra map[uint8][]byte, check func(*testing.T, ContourIndex)) {
	gs := fuzzGraphs()
	for i, g := range gs {
		h, err := Build(kind, g, BuildOptions{})
		if err != nil {
			f.Fatal(err)
		}
		data, err := MarshalIndex(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), data)
	}
	for i, data := range extra {
		f.Add(i, data)
	}
	f.Fuzz(func(t *testing.T, gi uint8, data []byte) {
		g := gs[int(gi)%len(gs)]
		h, err := UnmarshalIndex(kind, g, data)
		if err != nil {
			return
		}
		again, err := MarshalIndex(h)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted payload % x re-marshals to % x", data, again)
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
			cp.ReachedFrom(graph.NodeID(u), &st)
			cs.ReachesNode(graph.NodeID(u), &st)
		}
	})
}

func FuzzUnmarshalThreeHop(f *testing.F) {
	fuzzCodec(f, "threehop", map[uint8][]byte{0: dupSCCPayload}, func(t *testing.T, ci ContourIndex) {
		h := ci.(*ThreeHop)
		n := len(h.posOf)
		onChains := make([]int, n)
		for c := int32(0); c < int32(h.chains.rows()); c++ {
			for i, s := range h.chains.row(c) {
				onChains[s]++
				if p := h.posOf[s]; p != h.chains.off[c]+int32(i) || h.chainAt[p] != c {
					t.Fatalf("SCC %d at chain %d index %d has position %d", s, c, i, p)
				}
			}
		}
		for s, k := range onChains {
			if k != 1 {
				t.Fatalf("SCC %d of %d is on %d chains", s, n, k)
			}
		}
	})
}

func FuzzUnmarshalTC(f *testing.F) {
	fuzzCodec(f, "tc", nil, nil)
}

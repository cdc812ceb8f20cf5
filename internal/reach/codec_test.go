package reach

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
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
// SHA-256 of marshalV1 for fixed graphs. The two small ones were
// computed before list entries became in-memory chain positions, and
// are unchanged since those became varint gaps and since version 2
// replaced the writer. The oracle therefore writes what every version-1
// .snap holds. The default arXiv graph, where most contours span a
// large share of the chains, was pinned while every contour of the
// build was still a position list.
func TestThreeHopSnapshotGolden(t *testing.T) {
	ax, xm := goldenGraphs()
	axDefault, _ := arxiv.Generate(arxiv.DefaultConfig())
	for _, c := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"arxiv tiny", ax, "7b6aa930f46696cc9019963febfdf6429dc725da2dc0af2ffc08533a53aca5b7"},
		{"xmark 50", xm, "3454fbb6d75ce85dc25f0fab88caaf401ef20223a4e2e63a2b23796f8222324e"},
		{"arxiv default", axDefault, "f7ea281004de6908fec079e703e9ab22b1846e9c72bc8129faa6c39281c2fde2"},
	} {
		data := marshalV1(NewThreeHop(c.g))
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != c.want {
			t.Errorf("%s: marshalV1 SHA-256 = %s, want %s", c.name, got, c.want)
		}
	}
}

// marshalV1 returns the version-1 payload of h, written as the codec
// wrote it before version 2 replaced it: TestThreeHopSnapshotGolden
// pins the lists NewThreeHop builds through it.
func marshalV1(h *ThreeHop) []byte {
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
// it was built from, and the entry count is right.
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
	for i, r := range rows {
		enc[i] = appendGaps(nil, r)
		want += len(r)
	}
	packed := packRows(enc)
	if packed.n != want {
		t.Errorf("counted %d entries, want %d", packed.n, want)
	}
	for i, r := range rows {
		var got []int32
		b := packed.row(int32(i))
		for j, p := 0, int32(-1); j < len(b); {
			p, j = nextGap(b, j, p)
			got = append(got, p)
		}
		if !slices.Equal(got, r) {
			t.Errorf("row %d decodes to %v from % x, want %v", i, got, b, r)
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

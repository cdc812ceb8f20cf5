package snapshot

import (
	"bytes"
	"io"
	"testing"

	"gtpq/internal/arxiv"
	"gtpq/internal/graph"
	"gtpq/internal/reach"
	"gtpq/internal/xmark"
)

// benchData are the two graphs the codec benchmarks run on, with their
// built 3-hop indexes: an XMark site of 2,000 persons and the default
// arXiv graph.
func benchData() map[string]func() (*graph.Graph, reach.ContourIndex) {
	return map[string]func() (*graph.Graph, reach.ContourIndex){
		"xmark2000": func() (*graph.Graph, reach.ContourIndex) {
			g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 2000, Seed: 7})
			return g, reach.NewThreeHop(g)
		},
		"arxiv": func() (*graph.Graph, reach.ContourIndex) {
			g, _ := arxiv.Generate(arxiv.DefaultConfig())
			return g, reach.NewThreeHop(g)
		},
	}
}

func benchSnapshot(b *testing.B, build func() (*graph.Graph, reach.ContourIndex)) (*graph.Graph, reach.ContourIndex, []byte) {
	g, h := build()
	var buf bytes.Buffer
	if err := Save(&buf, g, h); err != nil {
		b.Fatal(err)
	}
	return g, h, buf.Bytes()
}

// BenchmarkSnapshotSave times Save of a built graph and index.
func BenchmarkSnapshotSave(b *testing.B) {
	for name, build := range benchData() {
		b.Run(name, func(b *testing.B) {
			g, h, data := benchSnapshot(b, build)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				if err := Save(io.Discard, g, h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotLoad times Decode of a saved snapshot: the CRC, the
// copies and the validation, the Tarjan run included.
func BenchmarkSnapshotLoad(b *testing.B) {
	for name, build := range benchData() {
		b.Run(name, func(b *testing.B) {
			_, _, data := benchSnapshot(b, build)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package graph_test

import (
	"testing"

	"gtpq/internal/graph"
	"gtpq/internal/xmark"
)

// BenchmarkFreeze measures turning the builder's edge list into the
// frozen layout on an XMark site (~50k nodes, ~58k edges).
func BenchmarkFreeze(b *testing.B) {
	src, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 2000, Seed: 7})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := graph.New(src.N(), src.M())
		for v := graph.NodeID(0); int(v) < src.N(); v++ {
			g.AddNode(src.Label(v), nil)
		}
		for v := graph.NodeID(0); int(v) < src.N(); v++ {
			for _, w := range src.Out(v) {
				if src.EdgeKindOf(v, w) == graph.CrossEdge {
					g.AddCrossEdge(v, w)
				} else {
					g.AddEdge(v, w)
				}
			}
		}
		b.StartTimer()
		g.Freeze()
	}
}

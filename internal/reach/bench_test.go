package reach

import (
	"math/rand"
	"testing"

	"gtpq/internal/arxiv"
	"gtpq/internal/graph"
	"gtpq/internal/xmark"
)

// BenchmarkThreeHopReads measures the query-time reads of the Lin/Lout
// lists on three dataset shapes: the benchmark's 201k-node XMark site,
// where lists are short and positions far apart; the dense arXiv DAG,
// where a row holds a few hundred entries; and a 1,500-node path, one
// chain whose rows are all empty, so a walk costs only the crossing of
// empty rows. Over a fixed random sample of nodes it times point
// queries, contour merges with probes against them, and one walker
// sweep each way.
func BenchmarkThreeHopReads(b *testing.B) {
	xm, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 8000, Seed: 7})
	ax, _ := arxiv.Generate(arxiv.DefaultConfig())
	path := graph.New(1500, 1499)
	for i := 0; i < 1500; i++ {
		path.AddNode("n", nil)
		if i > 0 {
			path.AddEdge(graph.NodeID(i-1), graph.NodeID(i))
		}
	}
	for _, fx := range []struct {
		name string
		g    *graph.Graph
	}{{"xmark", xm}, {"arxiv", ax}, {"path", path}} {
		h := NewThreeHop(fx.g)
		r := rand.New(rand.NewSource(71))
		nodes := make([]graph.NodeID, 256)
		for i := range nodes {
			nodes[i] = graph.NodeID(r.Intn(fx.g.N()))
		}
		var st Stats
		b.Run(fx.name+"/point", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.ReachesSt(nodes[i%len(nodes)], nodes[(i*7+3)%len(nodes)], &st)
			}
		})
		b.Run(fx.name+"/contour", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := nodes[(i*32)%len(nodes):][:32]
				cp, cs := h.MergeLists(s, false, &st), h.MergeLists(s, true, &st)
				for _, v := range nodes {
					h.Probe(v, cp, &st)
					h.Probe(v, cs, &st)
				}
			}
		})
		b.Run(fx.name+"/walk", func(b *testing.B) {
			b.ReportAllocs()
			sum := int32(0)
			f := func(cid, pos int32) { sum += pos }
			for i := 0; i < b.N; i++ {
				out, in := h.NewWalker(true, &st), h.NewWalker(false, &st)
				for _, v := range nodes {
					out.Walk(v, f)
					in.Walk(v, f)
				}
			}
		})
	}
}

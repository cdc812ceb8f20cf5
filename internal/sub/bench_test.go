package sub

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/core"
	"gtpq/internal/delta"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/qlang"
	"gtpq/internal/reach"
	"gtpq/internal/xmark"
)

// BenchmarkMaintain times the two ways a standing query is brought up
// to date after a batch the skip analysis cannot rule out: restricted
// re-evaluation (EvalSeededStatsCtx, the root seeded to the batch's
// reverse-reach set plus its new vertex) against full re-evaluation
// (EvalStatsCtx). The fixture is the benchmark's fleet_rw write stream:
// an XMark site of 2000 persons, batches of one probe_in leaf hung
// under two open_auction vertices, the standing query
// "x label=open_auction, y label=probe_in edge=ad", and an overlay
// engine serving the site plus all the batches. Besides ns/op it
// reports the median and 90th percentile over the batches.
func BenchmarkMaintain(b *testing.B) {
	const batches = 40
	g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 2000, Seed: 7})
	base, err := reach.Build(reach.DefaultKind, g)
	if err != nil {
		b.Fatal(err)
	}
	auctions := g.ByLabel("open_auction")
	r := rand.New(rand.NewSource(7))
	bs := make([]delta.Batch, batches)
	for i := range bs {
		leaf := graph.NodeID(g.N() + i)
		from := r.Perm(len(auctions))[:2]
		bs[i] = delta.Batch{
			Nodes: []delta.NodeAdd{{Label: "probe_in"}},
			Edges: []delta.EdgeAdd{{From: auctions[from[0]], To: leaf}, {From: auctions[from[1]], To: leaf}},
		}
	}
	ext, err := delta.Extend(g, bs)
	if err != nil {
		b.Fatal(err)
	}
	eng := gtea.NewWithIndex(ext, delta.NewOverlay(base, g.N(), ext.N(), bs), gtea.Options{})
	q, err := qlang.Parse("node x label=open_auction output\nnode y label=probe_in parent=x edge=ad output")
	if err != nil {
		b.Fatal(err)
	}

	// The seed decide computes for batch i, were it the last one applied.
	seeds := make([][]graph.NodeID, batches)
	var vis core.Bitset
	for i, batch := range bs {
		srcs := []graph.NodeID{batch.Edges[0].From, batch.Edges[1].From}
		up, ok := reachSet(ext, srcs, ext.In, ext.N(), &vis)
		if !ok {
			b.Fatal("reverse reach exceeded the whole graph")
		}
		seeds[i] = append(up, batch.Edges[0].To)
	}
	last := decide(&Subscription{q: q, conj: q.IsConjunctive()},
		catalog.ApplyEvent{Batch: bs[batches-1], Engine: eng, DS: &catalog.Dataset{Engine: eng}}, ext.N())
	if last.mode != modeRestricted || !sameSet(last.seed, seeds[batches-1]) {
		b.Fatalf("decide picked %s with a %d-vertex seed, want restricted with %d", last.mode, len(last.seed), len(seeds[batches-1]))
	}

	ctx := context.Background()
	for _, mode := range []struct {
		name string
		eval func(i int) error
	}{
		{"restricted", func(i int) error {
			_, _, err := eng.EvalSeededStatsCtx(ctx, q, seeds[i%batches])
			return err
		}},
		{"full", func(int) error {
			_, _, err := eng.EvalStatsCtx(ctx, q)
			return err
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			took := make([]time.Duration, b.N)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if err := mode.eval(i); err != nil {
					b.Fatal(err)
				}
				took[i] = time.Since(start)
			}
			slices.Sort(took)
			b.ReportMetric(float64(took[len(took)/2].Nanoseconds()), "p50-ns/op")
			b.ReportMetric(float64(took[len(took)*9/10].Nanoseconds()), "p90-ns/op")
		})
	}
}

// sameSet reports whether a and b hold the same vertices.
func sameSet(a, b []graph.NodeID) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

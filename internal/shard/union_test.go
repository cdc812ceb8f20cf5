package shard

import (
	"math/rand"
	"testing"

	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// TestUnionReconstructsGraph checks Union against the graph the engine
// was sharded from: identical sizes, labels, adjacency (multiplicity
// included), and edge kinds — with components spread over the shards
// and with empty shards.
func TestUnionReconstructsGraph(t *testing.T) {
	for _, c := range shapeCases(rand.New(rand.NewSource(21))) {
		t.Run(c.name, func(t *testing.T) {
			g := c.g
			plan, err := Partition(g, 3, ModeWCC)
			if err != nil {
				t.Fatal(err)
			}
			se, err := NewEngine(g, plan, Options{})
			if err != nil {
				t.Fatal(err)
			}
			u := se.Union()
			if u.N() != g.N() || u.M() != g.M() {
				t.Fatalf("union %d nodes / %d edges, want %d / %d", u.N(), u.M(), g.N(), g.M())
			}
			for v := 0; v < g.N(); v++ {
				nv := graph.NodeID(v)
				if u.Label(nv) != g.Label(nv) {
					t.Fatalf("node %d label %q, want %q", v, u.Label(nv), g.Label(nv))
				}
				got, want := u.Out(nv), g.Out(nv)
				if len(got) != len(want) {
					t.Fatalf("node %d has %d out-edges, want %d", v, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("node %d out[%d] = %d, want %d", v, i, got[i], want[i])
					}
					if u.EdgeKindOf(nv, got[i]) != g.EdgeKindOf(nv, want[i]) {
						t.Fatalf("node %d edge to %d: kind differs", v, got[i])
					}
				}
			}
		})
	}
}

// TestCompositeIndexMatchesFlat cross-checks the composite index's
// point probes, contours and label counts against a flat index over
// the same graph, on both backends.
func TestCompositeIndexMatchesFlat(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, c := range shapeCases(r) {
		t.Run(c.name, func(t *testing.T) {
			g := c.g
			plan, err := Partition(g, 3, ModeWCC)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []string{"threehop", "tc"} {
				se, err := NewEngine(g, plan, Options{Index: kind})
				if err != nil {
					t.Fatal(err)
				}
				ci := se.CompositeIndex()
				if ci.Kind() != CompositeKindPrefix+se.IndexKind() {
					t.Fatalf("composite kind %q", ci.Kind())
				}
				flat, err := reach.Build(kind, g)
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range testLabels {
					if got, want := se.LabelCount(l), len(g.ByLabel(l)); got != want {
						t.Fatalf("%s: LabelCount(%q) = %d, flat %d", kind, l, got, want)
					}
				}
				var st reach.Stats
				n := g.N()
				for u := 0; u < n; u++ {
					for v := 0; v < n; v++ {
						gu, gv := graph.NodeID(u), graph.NodeID(v)
						if got, want := ci.ReachesSt(gu, gv, &st), flat.ReachesSt(gu, gv, &st); got != want {
							t.Fatalf("%s: Reaches(%d,%d) = %v, flat %v", kind, u, v, got, want)
						}
					}
				}
				for rep := 0; rep < 6; rep++ {
					S := make([]graph.NodeID, 0, 5)
					for i := 1 + r.Intn(5); i > 0; i-- {
						S = append(S, graph.NodeID(r.Intn(n)))
					}
					pc, cpc := flat.PredContour(S, &st), ci.PredContour(S, &st)
					sc, csc := flat.SuccContour(S, &st), ci.SuccContour(S, &st)
					for v := 0; v < n; v++ {
						gv := graph.NodeID(v)
						if got, want := cpc.Probe(gv, &st), pc.Probe(gv, &st); got != want {
							t.Fatalf("%s: S=%v PredContour(%d) = %v, flat %v", kind, S, v, got, want)
						}
						if got, want := csc.Probe(gv, &st), sc.Probe(gv, &st); got != want {
							t.Fatalf("%s: S=%v SuccContour(%d) = %v, flat %v", kind, S, v, got, want)
						}
					}
				}
			}
		})
	}
}

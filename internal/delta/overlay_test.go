package delta

import (
	"math/rand"
	"testing"

	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// randomBatches mutates a graph with extra vertices and edges; edges
// may close cycles, touch new vertices, and chain through each other.
func randomBatches(r *rand.Rand, n, count int) []Batch {
	var batches []Batch
	total := n
	for b := 0; b < count; b++ {
		var batch Batch
		for i := r.Intn(3); i > 0; i-- {
			batch.Nodes = append(batch.Nodes, NodeAdd{Label: testLabels[r.Intn(len(testLabels))]})
		}
		limit := total + len(batch.Nodes)
		for i := 1 + r.Intn(5); i > 0; i-- {
			batch.Edges = append(batch.Edges, EdgeAdd{
				From: graph.NodeID(r.Intn(limit)),
				To:   graph.NodeID(r.Intn(limit)),
			})
		}
		total = limit
		batches = append(batches, batch)
	}
	return batches
}

// TestOverlayReachability cross-checks the overlay's point probes and
// contours against a rebuilt index, per vertex pair — the exactness
// both positive and negated predicates rest on.
func TestOverlayReachability(t *testing.T) {
	for _, kind := range []string{"threehop", "tc"} {
		r := rand.New(rand.NewSource(11))
		for trial := 0; trial < 6; trial++ {
			g := gen.Graph(r, 16+r.Intn(20), 30+r.Intn(40), testLabels, trial%2 == 0)
			base, err := reach.Build(kind, g)
			if err != nil {
				t.Fatal(err)
			}
			batches := randomBatches(r, g.N(), 1+r.Intn(4))
			ext, err := Extend(g, batches)
			if err != nil {
				t.Fatal(err)
			}
			ov := NewOverlay(base, g.N(), ext.N(), batches)
			oracle, err := reach.Build(kind, ext)
			if err != nil {
				t.Fatal(err)
			}
			var st reach.Stats
			n := ext.N()
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					gu, gv := graph.NodeID(u), graph.NodeID(v)
					if got, want := ov.ReachesSt(gu, gv, &st), oracle.ReachesSt(gu, gv, &st); got != want {
						t.Fatalf("%s trial %d: Reaches(%d,%d) = %v, oracle %v", kind, trial, u, v, got, want)
					}
				}
			}
			// Contours over random sets, probed at every vertex.
			for rep := 0; rep < 4; rep++ {
				S := make([]graph.NodeID, 0, 4)
				for i := 1 + r.Intn(5); i > 0; i-- {
					S = append(S, graph.NodeID(r.Intn(n)))
				}
				pc, opc := oracle.PredContour(S, &st), ov.PredContour(S, &st)
				sc, osc := oracle.SuccContour(S, &st), ov.SuccContour(S, &st)
				for v := 0; v < n; v++ {
					gv := graph.NodeID(v)
					if got, want := opc.Probe(gv, &st), pc.Probe(gv, &st); got != want {
						t.Fatalf("%s trial %d S=%v: PredContour(%d) = %v, oracle %v", kind, trial, S, v, got, want)
					}
					if got, want := osc.Probe(gv, &st), sc.Probe(gv, &st); got != want {
						t.Fatalf("%s trial %d S=%v: SuccContour(%d) = %v, oracle %v", kind, trial, S, v, got, want)
					}
				}
			}
		}
	}
}

// TestOverlayEmptyDelta pins the degenerate overlay: zero batches must
// behave exactly like the base.
func TestOverlayEmptyDelta(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := gen.Graph(r, 25, 60, testLabels, false)
	oracle, err := reach.Build(reach.DefaultKind, g)
	if err != nil {
		t.Fatal(err)
	}
	h := NewOverlay(oracle, g.N(), g.N(), nil)
	if want := KindPrefix + reach.DefaultKind; h.Kind() != want {
		t.Fatalf("empty overlay reports kind %q, want %q", h.Kind(), want)
	}
	var st reach.Stats
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			gu, gv := graph.NodeID(u), graph.NodeID(v)
			if h.ReachesSt(gu, gv, &st) != oracle.ReachesSt(gu, gv, &st) {
				t.Fatalf("empty overlay disagrees with base at (%d,%d)", u, v)
			}
		}
	}
}

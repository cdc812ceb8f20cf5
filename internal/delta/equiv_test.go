package delta

import (
	"math/rand"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/reach"
	"gtpq/internal/shard"
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

// rebuildEngine is the oracle: the extended graph with a from-scratch
// index of the same backend.
func rebuildEngine(t *testing.T, ext *graph.Graph, kind string) *gtea.Engine {
	t.Helper()
	eng, err := gtea.NewWithOptions(ext, gtea.Options{Index: kind})
	if err != nil {
		t.Fatalf("rebuild %s: %v", kind, err)
	}
	return eng
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
					if got, want := opc.ReachedFrom(gv, &st), pc.ReachedFrom(gv, &st); got != want {
						t.Fatalf("%s trial %d S=%v: PredContour(%d) = %v, oracle %v", kind, trial, S, v, got, want)
					}
					if got, want := osc.ReachesNode(gv, &st), sc.ReachesNode(gv, &st); got != want {
						t.Fatalf("%s trial %d S=%v: SuccContour(%d) = %v, oracle %v", kind, trial, S, v, got, want)
					}
				}
			}
		}
	}
}

// TestDeltaEquivalence is the incremental-vs-rebuild property the PR
// headlines: applying delta batches one at a time through the overlay
// answers every query exactly like rebuilding the dataset from scratch
// — for both backends, over a flat or a sharded base, with the same
// byte-identical tuples.
func TestDeltaEquivalence(t *testing.T) {
	seed, trials := gen.EquivKnobs(t, 2026, 6)
	backends := []string{"threehop", "tc"}
	cases := 0
	for _, sharded := range []bool{false, true} {
		for _, kind := range backends {
			for trial := 0; trial < trials; trial++ {
				r := rand.New(rand.NewSource(seed + int64(trial)*17))
				var g *graph.Graph
				if trial%2 == 0 {
					g = gen.Forest(r, 3+r.Intn(4), 5+r.Intn(8), 8+r.Intn(10), testLabels)
				} else {
					n := 18 + r.Intn(30)
					g = gen.Graph(r, n, 2*n, testLabels, true)
				}

				// The base index: flat backend, or the composite over a
				// sharded engine (the live-update path for sharded
				// datasets).
				var base reach.ContourIndex
				var err error
				if sharded {
					plan, perr := shard.Partition(g, 3, shard.ModeWCC)
					if perr != nil {
						t.Fatal(perr)
					}
					se, serr := shard.NewEngine(g, plan, shard.Options{Index: kind})
					if serr != nil {
						t.Fatal(serr)
					}
					union := se.Union()
					if union.N() != g.N() || union.M() != g.M() {
						t.Fatalf("union %d/%d, want %d/%d", union.N(), union.M(), g.N(), g.M())
					}
					base = se.CompositeIndex()
				} else {
					base, err = reach.Build(kind, g)
					if err != nil {
						t.Fatal(err)
					}
				}

				queries := make([]*core.Query, 3)
				for i := range queries {
					queries[i] = gen.Query(r, 2+r.Intn(4), testLabels, true, true)
				}
				batches := randomBatches(r, g.N(), 4)

				// Apply incrementally: after every batch, the overlay
				// engine must match a from-scratch rebuild.
				for upto := 1; upto <= len(batches); upto++ {
					ext, err := Extend(g, batches[:upto])
					if err != nil {
						t.Fatal(err)
					}
					ov := NewOverlay(base, g.N(), ext.N(), batches[:upto])
					live := gtea.NewWithIndex(ext, ov)
					oracle := rebuildEngine(t, ext, kind)
					for qi, q := range queries {
						want := oracle.Eval(q)
						got := live.Eval(q)
						if !want.Equal(got) {
							t.Fatalf("sharded=%v %s trial %d upto %d query %d: answers differ\n%s\nwant %v\ngot  %v",
								sharded, kind, trial, upto, qi, q, want, got)
						}
						cases++
					}
				}

				// Across the compaction boundary: fold the delta into a
				// fresh base, continue with more batches on top of it.
				ext, err := Extend(g, batches)
				if err != nil {
					t.Fatal(err)
				}
				compacted, err := reach.Build(kind, ext)
				if err != nil {
					t.Fatal(err)
				}
				more := randomBatches(r, ext.N(), 2)
				ext2, err := Extend(ext, more)
				if err != nil {
					t.Fatal(err)
				}
				ov2 := NewOverlay(compacted, ext.N(), ext2.N(), more)
				live2 := gtea.NewWithIndex(ext2, ov2)
				oracle2 := rebuildEngine(t, ext2, kind)
				for qi, q := range queries {
					want := oracle2.Eval(q)
					got := live2.Eval(q)
					if !want.Equal(got) {
						t.Fatalf("sharded=%v %s trial %d post-compaction query %d: answers differ\nwant %v\ngot %v",
							sharded, kind, trial, qi, want, got)
					}
					cases++
				}
			}
		}
	}
	t.Logf("checked %d incremental-vs-rebuild cases", cases)
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

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

// TestPlanEquivalence is the planner's exactness property: with the
// cost-based order and multiway kernels on, every query answers with
// byte-identical tuples to the paper's fixed post-order — per backend,
// over flat, sharded, and delta-overlay bases, including queries with
// PC edges, disjunction, and negation. GTPQ_EQUIV_SEED/GTPQ_EQUIV_CASES
// scale the sweep in nightly runs (gen.EquivKnobs).
func TestPlanEquivalence(t *testing.T) {
	seed, trials := gen.EquivKnobs(t, 2027, 6)
	backends := []string{"threehop", "tc"}
	bases := []string{"flat", "sharded", "overlay"}
	cases := 0
	for _, kind := range backends {
		for _, base := range bases {
			for trial := 0; trial < trials; trial++ {
				r := rand.New(rand.NewSource(seed + int64(trial)*23))
				var g *graph.Graph
				if trial%2 == 0 {
					// Zipf labels: the skew the planner exists for.
					g = gen.ZipfForest(r, 3+r.Intn(3), 20+r.Intn(20), 40+r.Intn(30), testLabels)
				} else {
					n := 30 + r.Intn(40)
					g = gen.Graph(r, n, 2*n, testLabels, trial%4 == 1)
				}
				queries := make([]*core.Query, 4)
				for i := range queries {
					queries[i] = gen.Query(r, 2+r.Intn(5), testLabels, true, true)
				}
				on, off := planPair(t, g, kind, base, r)
				for qi, q := range queries {
					want := off(q)
					got := on(q)
					if !want.Equal(got) {
						t.Fatalf("%s/%s trial %d query %d: planner changed the answer\n%s\nwant %v\ngot  %v",
							kind, base, trial, qi, q, want, got)
					}
					cases++
				}
			}
		}
	}
	t.Logf("checked %d planner-on-vs-off cases", cases)
}

// planPair builds the planner-on and planner-off evaluators for one
// (graph, backend, base) combination; both sides share the same data
// (graph, partition, delta batches) and differ only in NoPlan.
func planPair(t *testing.T, g *graph.Graph, kind, base string, r *rand.Rand) (on, off func(*core.Query) *core.Answer) {
	t.Helper()
	batches := randomBatches(r, g.N(), 3) // only the overlay base uses these
	build := func(noPlan bool) func(*core.Query) *core.Answer {
		switch base {
		case "flat":
			eng, err := gtea.NewWithOptions(g, gtea.Options{Index: kind, NoPlan: noPlan})
			if err != nil {
				t.Fatal(err)
			}
			return eng.Eval
		case "sharded":
			plan, err := shard.Partition(g, 3, shard.ModeWCC)
			if err != nil {
				t.Fatal(err)
			}
			se, err := shard.NewEngine(g, plan, shard.Options{Index: kind, NoPlan: noPlan})
			if err != nil {
				t.Fatal(err)
			}
			return se.Eval
		default: // overlay
			h, err := reach.Build(kind, g)
			if err != nil {
				t.Fatal(err)
			}
			ext, err := Extend(g, batches)
			if err != nil {
				t.Fatal(err)
			}
			ov := NewOverlay(h, g.N(), ext.N(), batches)
			return gtea.NewWithIndexOptions(ext, ov, gtea.Options{NoPlan: noPlan}).Eval
		}
	}
	return build(false), build(true)
}

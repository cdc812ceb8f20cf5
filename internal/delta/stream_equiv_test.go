package delta

import (
	"context"
	"math/rand"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/reach"
	"gtpq/internal/shard"
)

// streamEvaluator is the slice of catalog.Engine the streaming
// equivalence property needs; gtea.Engine and shard.ShardedEngine both
// satisfy it.
type streamEvaluator interface {
	Eval(q *core.Query) *core.Answer
	EvalCursor(ctx context.Context, q *core.Query) (gtea.Cursor, gtea.Stats, error)
}

// TestStreamEquivalence is the premature-materialization regression
// property locking down the streaming result path: draining EvalCursor
// yields rows byte-identical — values and order — to the materialized
// Eval, for every backend (threehop/tc) × base (flat, sharded,
// delta-overlay) × planner (on/off) combination, over random graphs and
// random queries (which exercise both the lazy odometer product and the
// interleaved-component buffered fallback). GTPQ_EQUIV_SEED and
// GTPQ_EQUIV_CASES scale the sweep in nightly runs (gen.EquivKnobs).
func TestStreamEquivalence(t *testing.T) {
	seed, trials := gen.EquivKnobs(t, 8086, 5)
	backends := []string{"threehop", "tc"}
	bases := []string{"flat", "sharded", "overlay"}
	cases := 0
	for _, kind := range backends {
		for _, base := range bases {
			for _, noPlan := range []bool{false, true} {
				for trial := 0; trial < trials; trial++ {
					r := rand.New(rand.NewSource(seed + int64(trial)*31))
					var g *graph.Graph
					if trial%2 == 0 {
						g = gen.ZipfForest(r, 3+r.Intn(3), 20+r.Intn(20), 40+r.Intn(30), testLabels)
					} else {
						n := 30 + r.Intn(40)
						g = gen.Graph(r, n, 2*n, testLabels, trial%4 == 1)
					}
					eng := buildStreamEvaluator(t, g, kind, base, noPlan, r)
					for qi := 0; qi < 4; qi++ {
						q := gen.Query(r, 2+r.Intn(5), testLabels, true, true)
						want := eng.Eval(q)
						cur, _, err := eng.EvalCursor(context.Background(), q)
						if err != nil {
							t.Fatalf("%s/%s noPlan=%t trial %d query %d: EvalCursor: %v",
								kind, base, noPlan, trial, qi, err)
						}
						got, err := gtea.Collect(cur)
						cur.Close()
						if err != nil {
							t.Fatalf("%s/%s noPlan=%t trial %d query %d: drain: %v",
								kind, base, noPlan, trial, qi, err)
						}
						if !want.Equal(got) {
							t.Fatalf("%s/%s noPlan=%t trial %d query %d: streamed rows differ from Eval\nquery:\n%s\nwant %v\ngot  %v",
								kind, base, noPlan, trial, qi, q, want, got)
						}
						cases++
					}
				}
			}
		}
	}
	t.Logf("checked %d streamed-vs-materialized cases", cases)
}

// buildStreamEvaluator constructs one (graph, backend, base, planner)
// evaluation engine, mirroring planPair's bases.
func buildStreamEvaluator(t *testing.T, g *graph.Graph, kind, base string, noPlan bool, r *rand.Rand) streamEvaluator {
	t.Helper()
	switch base {
	case "flat":
		eng, err := gtea.NewWithOptions(g, gtea.Options{Index: kind, NoPlan: noPlan})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	case "sharded":
		plan, err := shard.Partition(g, 3, shard.ModeWCC)
		if err != nil {
			t.Fatal(err)
		}
		se, err := shard.NewEngine(g, plan, shard.Options{Index: kind, NoPlan: noPlan})
		if err != nil {
			t.Fatal(err)
		}
		return se
	default: // overlay
		batches := randomBatches(r, g.N(), 3)
		h, err := reach.Build(kind, g)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := Extend(g, batches)
		if err != nil {
			t.Fatal(err)
		}
		ov := NewOverlay(h, g.N(), ext.N(), batches)
		return gtea.NewWithIndexOptions(ext, ov, gtea.Options{NoPlan: noPlan})
	}
}

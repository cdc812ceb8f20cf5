package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
)

// testLabels is the label alphabet of the random workloads.
var testLabels = []string{"a", "b", "c", "d"}

// randomTestGraph alternates between two shapes: a forest of
// independent DAG blocks (many WCCs — the wcc partitioner's home turf)
// and one dense random DAG (often a single WCC, forcing the hash
// fallback under ModeAuto).
func randomTestGraph(r *rand.Rand, style int) *graph.Graph {
	if style == 0 {
		blocks := 3 + r.Intn(6)
		return gen.Forest(r, blocks, 4+r.Intn(10), 6+r.Intn(14), testLabels)
	}
	n := 20 + r.Intn(60)
	return gen.Graph(r, n, 2*n+r.Intn(3*n), testLabels, true)
}

// TestShardedEquivalence is the paper-semantics preservation property
// this PR's archetype headlines: for random DAGs and random GTPQs,
// sharded evaluation returns exactly the unsharded answer for every
// shard count K ∈ {1,2,4,7} and both reachability backends. CI runs it
// under -race with this fixed seed; well over 200 (graph, query, K,
// backend) cases are checked per run.
func TestShardedEquivalence(t *testing.T) {
	baseSeed, graphSeeds := gen.EquivKnobs(t, 4200, 8)
	backends := []string{"threehop", "tc"}
	ks := []int{1, 2, 4, 7}
	cases := 0
	for seed := int64(0); seed < int64(graphSeeds); seed++ {
		for style := 0; style < 2; style++ {
			r := rand.New(rand.NewSource(baseSeed + 10*seed + int64(style)))
			g := randomTestGraph(r, style)
			queries := make([]*core.Query, 2)
			for i := range queries {
				queries[i] = gen.Query(r, 2+r.Intn(5), testLabels, true, true)
				if err := queries[i].Validate(); err != nil {
					t.Fatalf("seed %d style %d: invalid random query: %v", seed, style, err)
				}
			}
			for _, kind := range backends {
				base, err := gtea.NewWithOptions(g, gtea.Options{Index: kind})
				if err != nil {
					t.Fatalf("seed %d style %d %s: unsharded build: %v", seed, style, kind, err)
				}
				for _, k := range ks {
					plan, err := Partition(g, k, ModeAuto)
					if err != nil {
						t.Fatalf("seed %d style %d: partition k=%d: %v", seed, style, k, err)
					}
					se, err := NewEngine(g, plan, Options{Index: kind})
					if err != nil {
						t.Fatalf("seed %d style %d %s k=%d: sharded build: %v", seed, style, kind, k, err)
					}
					if se.NumShards() != k {
						t.Fatalf("seed %d style %d: built %d shards, want %d", seed, style, se.NumShards(), k)
					}
					for qi, q := range queries {
						want := base.Eval(q)
						got := se.Eval(q)
						if !want.Equal(got) {
							t.Fatalf("seed %d style %d %s k=%d mode=%s query %d: answers differ\nquery:\n%s\nwant %v\ngot  %v",
								seed, style, kind, k, plan.Mode, qi, q, want, got)
						}
						cases++
					}
				}
			}
		}
	}
	if floor := 25 * graphSeeds; cases < floor {
		t.Fatalf("only %d equivalence cases checked, want >= %d", cases, floor)
	}
	t.Logf("checked %d (graph, query, K, backend) cases", cases)
}

// TestShardedEquivalenceOnDisk closes the loop through the persistence
// layer: WriteDir → LoadDir must serve the same answers as in-memory
// sharding and the unsharded engine, for both partitioning modes.
func TestShardedEquivalenceOnDisk(t *testing.T) {
	for _, mode := range []Mode{ModeWCC, ModeHash} {
		t.Run(string(mode), func(t *testing.T) {
			r := rand.New(rand.NewSource(99))
			g := gen.Forest(r, 5, 12, 20, testLabels)
			base := gtea.New(g)
			plan, err := Partition(g, 3, mode)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			man, err := WriteDir(dir, "ds", g, plan, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(man.Shards) != 3 || man.Mode != mode {
				t.Fatalf("manifest: %+v", man)
			}
			se, man2, err := LoadDir(dir, LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if man2.TotalNodes != g.N() || man2.TotalEdges != g.M() {
				t.Fatalf("manifest totals %d/%d, want %d/%d", man2.TotalNodes, man2.TotalEdges, g.N(), g.M())
			}
			for i := 0; i < 10; i++ {
				q := gen.Query(r, 2+r.Intn(5), testLabels, true, true)
				want := base.Eval(q)
				got := se.Eval(q)
				if !want.Equal(got) {
					t.Fatalf("mode %s query %d: answers differ after disk round trip\n%s\nwant %v\ngot  %v",
						mode, i, q, want, got)
				}
			}
		})
	}
}

// TestShardedStats checks the aggregate counters: per-shard eval
// counters advance and the merged Results matches the answer size.
func TestShardedStats(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := gen.Forest(r, 4, 10, 15, testLabels)
	plan, err := Partition(g, 4, ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewEngine(g, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := gen.Query(r, 3, testLabels, true, false)
	ans, st, err := se.EvalStatsCtx(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Results != int64(ans.Len()) {
		t.Fatalf("stats.Results = %d, answer has %d", st.Results, ans.Len())
	}
	for i, sh := range se.ShardStats() {
		if sh.Evals != 1 {
			t.Fatalf("shard %d: %d evals, want 1", i, sh.Evals)
		}
	}
	if se.IndexSize() <= 0 {
		t.Fatal("summed index size not positive")
	}
	if fmt.Sprint(se.IndexKind()) == "" {
		t.Fatal("empty index kind")
	}
}

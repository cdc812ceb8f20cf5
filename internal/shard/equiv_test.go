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
// independent DAG blocks (many WCCs, spread over the shards) and one
// dense random DAG (often a single WCC, leaving all but one shard
// empty).
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
					plan, err := Partition(g, k, ModeWCC)
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
							t.Fatalf("seed %d style %d %s k=%d query %d: answers differ\nquery:\n%s\nwant %v\ngot  %v",
								seed, style, kind, k, qi, q, want, got)
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

// oneComponentGraph is a dense random DAG with a spanning path, so it
// is a single weakly-connected component: sharded at K > 1 it leaves
// K-1 shards empty.
func oneComponentGraph(r *rand.Rand, n int) *graph.Graph {
	g := graph.New(n, 3*n)
	for i := 0; i < n; i++ {
		g.AddNode(testLabels[r.Intn(len(testLabels))], nil)
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	for e := 0; e < 2*n; e++ {
		u := r.Intn(n - 1)
		g.AddEdge(graph.NodeID(u), graph.NodeID(u+1+r.Intn(n-u-1)))
	}
	g.Freeze()
	return g
}

// shapeCase is one graph shape the round-trip tests run on.
type shapeCase struct {
	name string
	g    *graph.Graph
}

// shapeCases returns many components packed across the shards ("wcc")
// and one component that leaves shards empty.
func shapeCases(r *rand.Rand) []shapeCase {
	return []shapeCase{
		{"wcc", gen.Forest(r, 5, 12, 20, testLabels)},
		{"one_component", oneComponentGraph(r, 40)},
	}
}

// TestShardedEquivalenceOnDisk closes the loop through the persistence
// layer: WriteDir → LoadDir must serve the same answers as the
// unsharded engine, on both backends, including empty shards.
func TestShardedEquivalenceOnDisk(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for _, c := range shapeCases(r) {
		t.Run(c.name, func(t *testing.T) {
			g := c.g
			plan, err := Partition(g, 3, ModeWCC)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []string{"threehop", "tc"} {
				base, err := gtea.NewWithOptions(g, gtea.Options{Index: kind})
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				man, err := WriteDir(dir, "ds", g, plan, Options{Index: kind})
				if err != nil {
					t.Fatal(err)
				}
				if len(man.Shards) != 3 || man.Mode != ModeWCC || man.Replicated != 0 {
					t.Fatalf("%s: manifest: %+v", kind, man)
				}
				se, man2, err := LoadDir(dir, Options{})
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				if man2.TotalNodes != g.N() || man2.TotalEdges != g.M() {
					t.Fatalf("%s: manifest totals %d/%d, want %d/%d", kind, man2.TotalNodes, man2.TotalEdges, g.N(), g.M())
				}
				for i := 0; i < 10; i++ {
					q := gen.Query(r, 2+r.Intn(5), testLabels, true, true)
					want := base.Eval(q)
					got := se.Eval(q)
					if !want.Equal(got) {
						t.Fatalf("%s query %d: answers differ after disk round trip\n%s\nwant %v\ngot  %v",
							kind, i, q, want, got)
					}
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

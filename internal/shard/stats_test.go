package shard

import (
	"fmt"
	"math/rand"
	"testing"

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

// TestShardedStatsCarryPlan checks the merged plan of a K=3 engine
// against the flat engine's over random queries: per node the kernels
// agree and the summed initial candidate counts equal the flat ones.
// With the planner off neither records a plan.
func TestShardedStatsCarryPlan(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	g := gen.Forest(r, 9, 40, 90, testLabels)
	plan, err := Partition(g, 3, ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	for _, noPlan := range []bool{false, true} {
		se, err := NewEngine(g, plan, Options{NoPlan: noPlan})
		if err != nil {
			t.Fatal(err)
		}
		flat, err := gtea.NewWithOptions(g, gtea.Options{NoPlan: noPlan})
		if err != nil {
			t.Fatal(err)
		}
		multiway := 0
		for trial := 0; trial < 30; trial++ {
			q := gen.Query(r, 2+r.Intn(4), testLabels, true, true)
			_, st, err := se.EvalStatsCtx(nil, q)
			if err != nil {
				t.Fatal(err)
			}
			_, want := flat.EvalStats(q)
			if noPlan {
				if st.Plan != nil {
					t.Fatalf("trial %d: planner off, sharded plan %v", trial, st.Plan)
				}
				continue
			}
			if st.Plan == nil || len(st.Plan.Nodes) != len(want.Plan.Nodes) {
				t.Fatalf("trial %d: sharded plan %v, flat %v", trial, st.Plan, want.Plan)
			}
			for u, n := range st.Plan.Nodes {
				w := want.Plan.Nodes[u]
				if n.Kernel != w.Kernel || n.InitCands != w.InitCands {
					t.Fatalf("trial %d node %d: sharded %s init=%d, flat %s init=%d\n%s",
						trial, u, n.Kernel, n.InitCands, w.Kernel, w.InitCands, q)
				}
				if n.Kernel == gtea.KernelMultiway {
					multiway++
				}
			}
		}
		if !noPlan && multiway == 0 {
			t.Fatal("no node ran the multiway kernel")
		}
	}
}

package shard

import (
	"math/rand"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
)

// TestWeakComponents checks WCC identification on a hand-built graph.
func TestWeakComponents(t *testing.T) {
	g := graph.New(7, 5)
	for i := 0; i < 7; i++ {
		g.AddNode("a", nil)
	}
	// Components: {0,1,2} (1->0, 1->2), {3,4} (3->4), {5}, {6}.
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.Freeze()
	comps := WeakComponents(g)
	want := [][]graph.NodeID{{0, 1, 2}, {3, 4}, {5}, {6}}
	if len(comps) != len(want) {
		t.Fatalf("got %d components %v, want %d", len(comps), comps, len(want))
	}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
			}
		}
	}
}

// TestPartitionWCC checks the wcc planner: disjoint parts covering all
// vertices, no replication, never splitting a component, and rough
// balance on a many-component forest.
func TestPartitionWCC(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g := gen.Forest(r, 16, 10, 14, []string{"a", "b"})
	const k = 4
	plan, err := Partition(g, k, ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Components < 16 || len(plan.Parts) != k {
		t.Fatalf("plan: %d components, %d parts", plan.Components, len(plan.Parts))
	}
	seen := make([]bool, g.N())
	for _, part := range plan.Parts {
		for _, v := range part {
			if seen[v] {
				t.Fatalf("vertex %d in two wcc parts", v)
			}
			seen[v] = true
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d unassigned", v)
		}
	}
	// Components are never split: both endpoints of every edge land in
	// the same part.
	partOf := make([]int, g.N())
	for s, part := range plan.Parts {
		for _, v := range part {
			partOf[v] = s
		}
	}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Out(graph.NodeID(v)) {
			if partOf[v] != partOf[w] {
				t.Fatalf("edge %d->%d cut across wcc shards %d/%d", v, w, partOf[v], partOf[w])
			}
		}
	}
	// Greedy bin packing over 16 equal blocks on 4 shards is exact.
	for s, part := range plan.Parts {
		if len(part) != g.N()/k {
			t.Fatalf("shard %d holds %d vertices, want %d", s, len(part), g.N()/k)
		}
	}
}

// TestPartitionAuto checks the fewer-components-than-K case: one
// 30-node chain at K=4 fills one part and leaves three empty. A shard
// count below 1 and any mode but wcc are rejected.
func TestPartitionAuto(t *testing.T) {
	chain := graph.New(30, 29)
	for i := 0; i < 30; i++ {
		chain.AddNode("a", nil)
	}
	for i := 0; i < 29; i++ {
		chain.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	plan, err := Partition(chain, 4, ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Components != 1 || len(plan.Parts) != 4 {
		t.Fatalf("plan: %d components, %d parts", plan.Components, len(plan.Parts))
	}
	for s, part := range plan.Parts {
		want := 0
		if s == 0 {
			want = 30
		}
		if len(part) != want {
			t.Fatalf("part %d holds %d vertices, want %d", s, len(part), want)
		}
	}
	if _, err := Partition(chain, 0, ModeWCC); err == nil {
		t.Fatal("k=0 accepted")
	}
	for _, m := range []Mode{"bogus", "hash", "auto"} {
		if _, err := Partition(chain, 2, m); err == nil {
			t.Fatalf("mode %q accepted", m)
		}
	}
}

// TestEmptyShards checks the K > N boundary: shards with no vertices
// still build engines (on empty subgraphs) and evaluate to empty
// partial answers, on both backends.
func TestEmptyShards(t *testing.T) {
	g := graph.New(2, 1)
	g.AddNode("a", nil)
	g.AddNode("b", nil)
	g.AddEdge(0, 1)
	g.Freeze()
	plan, err := Partition(g, 5, ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Parts) != 5 {
		t.Fatalf("%d parts, want 5", len(plan.Parts))
	}
	for _, kind := range []string{"threehop", "tc"} {
		se, err := NewEngine(g, plan, Options{Index: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		q := core.NewQuery()
		q.SetOutput(q.AddRoot("x", core.Label("a")))
		if got := evalAnswer(t, se, q).Len(); got != 1 {
			t.Fatalf("%s: %d results, want 1", kind, got)
		}
	}
}

package reach

import (
	"math/rand"
	"testing"

	"gtpq/internal/graph"
)

// ambiguousGraphs are graphs on which settling an own-position ambiguity
// has to visit each SCC next to a node once although the node's
// adjacency names it more often: parallel edges, and two neighbours of
// one node inside one cyclic SCC, on the out side and on the in side. The first graph is
// made by hand; the rest are random multigraphs with the same features.
func ambiguousGraphs() []*graph.Graph {
	build := func(n int, edges [][2]int) *graph.Graph {
		g := graph.New(n, len(edges))
		for i := 0; i < n; i++ {
			g.AddNode("n", nil)
		}
		for _, e := range edges {
			g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
		}
		g.Freeze()
		return g
	}
	// Node 0 points at 1 twice and at 2, and {1, 2} is a cycle; it also
	// points at 3 -> 4. Node 0 is pointed at by 5 and 6, which form a
	// cycle, and twice by 7.
	gs := []*graph.Graph{build(8, [][2]int{
		{0, 1}, {0, 1}, {0, 2}, {1, 2}, {2, 1}, {0, 3}, {3, 4}, {1, 4},
		{5, 0}, {6, 0}, {5, 6}, {6, 5}, {7, 0}, {7, 0}, {7, 5},
	})}
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 24; i++ {
		n := 6 + r.Intn(30)
		var edges [][2]int
		for e := r.Intn(3 * n); e > 0; e-- {
			u, v := r.Intn(n), r.Intn(n)
			edges = append(edges, [2]int{u, v})
			switch r.Intn(4) {
			case 0:
				edges = append(edges, [2]int{u, v}) // parallel edge
			case 1:
				edges = append(edges, [2]int{v, u}) // a 2-cycle, or a self-loop
			}
		}
		gs = append(gs, build(n, edges))
	}
	return gs
}

// TestAmbiguousWitnessThroughAdjacency drives Probe into
// ResolveAmbiguous over contours of both directions: v is in S, v's SCC is trivial, and v's own position is the contour's witness.
// Answers are checked against a BFS. The lookups those probes charge are
// pinned: a probe that gets as far as resolving has found no witness in
// v's own lists, so it visits every SCC next to v, and the count moves
// if one is visited twice or skipped.
func TestAmbiguousWitnessThroughAdjacency(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	var ambPred, ambSucc int
	var predLookups, succLookups int64
	for gi, g := range ambiguousGraphs() {
		h := NewThreeHop(g)
		reached := make([]map[graph.NodeID]bool, g.N())
		for u := range reached {
			reached[u] = graph.ReachableFrom(g, graph.NodeID(u))
		}
		for v := 0; v < g.N(); v++ {
			nv := graph.NodeID(v)
			// Beside v, S may hold a node v reaches and one reaching v.
			near := []graph.NodeID{nv}
			var down, up []graph.NodeID
			for u := 0; u < g.N(); u++ {
				if reached[v][graph.NodeID(u)] {
					down = append(down, graph.NodeID(u))
				}
				if reached[u][nv] {
					up = append(up, graph.NodeID(u))
				}
			}
			for _, xs := range [][]graph.NodeID{down, up} {
				if len(xs) > 0 {
					near = append(near, xs[r.Intn(len(xs))])
				}
			}
			for _, S := range [][]graph.NodeID{
				{nv},
				{graph.NodeID(r.Intn(g.N())), nv, graph.NodeID(r.Intn(g.N()))},
				near,
			} {
				var st Stats
				cp, cs := h.MergeLists(S, false, &st), h.MergeLists(S, true, &st)
				_, pAmb := h.CheckOwn(nv, cp)
				_, sAmb := h.CheckOwn(nv, cs)
				if gi == 0 && len(S) == 1 && nv == 0 && !(pAmb && sAmb) {
					t.Fatalf("node 0 with S = {0}: ambiguous %v (pred) %v (succ), want both", pAmb, sAmb)
				}
				var pst, sst Stats
				if got, want := h.Probe(nv, cp, &pst), contourWant(g, nv, S, "vToS"); got != want {
					t.Fatalf("graph %d: v=%d reaches S=%v: Probe = %v, want %v", gi, v, S, got, want)
				}
				if got, want := h.Probe(nv, cs, &sst), contourWant(g, nv, S, "sToV"); got != want {
					t.Fatalf("graph %d: S=%v reaches v=%d: Probe = %v, want %v", gi, S, v, got, want)
				}
				if pAmb {
					ambPred++
					predLookups += pst.Lookups
				}
				if sAmb {
					ambSucc++
					succLookups += sst.Lookups
				}
			}
		}
	}
	// Counted with the condensation's own DAG rows as the neighbour lists.
	const wantPred, wantPredLookups, wantSucc, wantSuccLookups = 557, 296, 551, 239
	if ambPred != wantPred || predLookups != wantPredLookups || ambSucc != wantSucc || succLookups != wantSuccLookups {
		t.Errorf("ambiguous probes: %d pred (%d lookups), %d succ (%d lookups), want %d (%d), %d (%d)",
			ambPred, predLookups, ambSucc, succLookups, wantPred, wantPredLookups, wantSucc, wantSuccLookups)
	}
}

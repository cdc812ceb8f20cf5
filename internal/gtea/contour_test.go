package gtea

import (
	"math/rand"
	"slices"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// TestBitsetContourMatchesIndex checks the kernel rule's bitset contour
// against the transitive closure's merged contours on random graphs,
// cyclic and acyclic, with random sets S: in both directions a probe
// agrees with the backend's for every node, which pins strictness (a
// member reaches itself only on a cycle), and the one-hop set is
// exactly S's adjacency.
func TestBitsetContourMatchesIndex(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	for trial := 0; trial < 60; trial++ {
		dag := trial%2 == 0
		n := 2 + r.Intn(80)
		g := gen.Graph(r, n, r.Intn(2*n+1), []string{"a"}, dag)
		tc := reach.NewTC(g)
		var S []graph.NodeID
		for v := range n {
			if r.Intn(6) == 0 {
				S = append(S, graph.NodeID(v))
			}
		}
		ec := &evalContext{g: g}
		var set core.Bitset
		for _, down := range []bool{false, true} {
			var st reach.Stats
			want := tc.PredContour(S, &st)
			nbrs := g.In
			if down {
				want, nbrs = tc.SuccContour(S, &st), g.Out
			}
			got := ec.connected(S, down, false, &set)
			for v := range graph.NodeID(n) {
				if got.Probe(v, nil) != want.Probe(v, &st) {
					t.Fatalf("trial %d (dag=%v) down=%v S=%v: node %d: bitset %v, closure %v",
						trial, dag, down, S, v, got.Probe(v, nil), want.Probe(v, &st))
				}
			}
			hop := ec.connected(S, down, true, &set)
			for v := range graph.NodeID(n) {
				adj := slices.ContainsFunc(S, func(s graph.NodeID) bool {
					_, ok := slices.BinarySearch(nbrs(s), v)
					return ok
				})
				if hop.Probe(v, nil) != adj {
					t.Fatalf("trial %d (dag=%v) down=%v S=%v: node %d: one-hop %v, adjacency %v",
						trial, dag, down, S, v, hop.Probe(v, nil), adj)
				}
			}
		}
	}
}

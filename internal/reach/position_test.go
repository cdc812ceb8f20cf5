package reach_test

import (
	"bytes"
	"math/rand"
	"testing"

	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// TestPositionsRenumberCyclicSCCs checks the 3-hop index, which names
// an SCC by its chain position, against the transitive closure, which
// keeps Tarjan's ids, on random graphs with cycles and self-loops: the
// cycle bits must follow each SCC to its position, so every node
// strictly reaches itself on both or on neither. A decoded image checks
// its position map against the Tarjan ids recomputed from the graph, so
// an image must survive a decode and re-encode byte for byte. At least
// one graph must number some SCC differently in the two orders, or the
// test would not exercise the renumbering.
func TestPositionsRenumberCyclicSCCs(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	labels := []string{"a", "b", "c"}
	renumbered, cyclic := 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 5 + r.Intn(60)
		g := gen.Graph(r, n, n+r.Intn(2*n), labels, false)
		built := reach.NewThreeHop(g)
		tc := reach.NewTC(g)
		cond := graph.Condense(g)
		var st reach.Stats
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			want := tc.ReachesSt(v, v, &st)
			if got := built.ReachesSt(v, v, &st); got != want {
				t.Fatalf("trial %d: node %d reaches itself: 3-hop %v, tc %v", trial, v, got, want)
			}
			if want {
				cyclic++
			}
			if _, pos := built.Position(v); pos != cond.Comp[v] {
				renumbered++
			}
		}
		data, err := reach.AppendIndex(nil, built)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := reach.DecodeIndex("threehop", g, graph.NewDecoder(data))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		again, err := reach.AppendIndex(nil, decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("trial %d: image changes on a decode and re-encode", trial)
		}
	}
	if renumbered == 0 || cyclic == 0 {
		t.Fatalf("%d nodes at a position other than their Tarjan id, %d on a cycle: want both > 0", renumbered, cyclic)
	}
}

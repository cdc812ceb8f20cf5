package reach

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gtpq/internal/graph"
)

// Property-based invariants for the reachability indexes, driven by
// testing/quick over randomized seeds.

func TestQuickReachabilityIsTransitive(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	cfg := &quick.Config{MaxCount: 40, Rand: r}
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := randDigraph(rr, 2+rr.Intn(25), 2+rr.Intn(70))
		h := NewThreeHop(g)
		var st Stats
		// Sample triples: u→v and v→w imply u→w.
		for i := 0; i < 30; i++ {
			u := graph.NodeID(rr.Intn(g.N()))
			v := graph.NodeID(rr.Intn(g.N()))
			w := graph.NodeID(rr.Intn(g.N()))
			if h.ReachesSt(u, v, &st) && h.ReachesSt(v, w, &st) && !h.ReachesSt(u, w, &st) {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickEdgeImpliesReach(t *testing.T) {
	r := rand.New(rand.NewSource(402))
	cfg := &quick.Config{MaxCount: 40, Rand: r}
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := randDigraph(rr, 2+rr.Intn(25), 2+rr.Intn(70))
		h := NewThreeHop(g)
		var st Stats
		for v := 0; v < g.N(); v++ {
			for _, w := range g.Out(graph.NodeID(v)) {
				if !h.ReachesSt(graph.NodeID(v), w, &st) {
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickContourSubsumesMembers(t *testing.T) {
	// v reaches the contour of S whenever it reaches any single member
	// (the contour must never lose reachability information).
	r := rand.New(rand.NewSource(403))
	cfg := &quick.Config{MaxCount: 40, Rand: r}
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := randDAG(rr, 2+rr.Intn(30), 2+rr.Intn(80))
		h := NewThreeHop(g)
		var st Stats
		k := 1 + rr.Intn(5)
		S := make([]graph.NodeID, k)
		for i := range S {
			S[i] = graph.NodeID(rr.Intn(g.N()))
		}
		cp := h.MergeLists(S, false, &st)
		cs := h.MergeLists(S, true, &st)
		for v := 0; v < g.N(); v++ {
			nv := graph.NodeID(v)
			for _, s := range S {
				if h.ReachesSt(nv, s, &st) && !h.Probe(nv, cp, &st) {
					return false
				}
				if h.ReachesSt(s, nv, &st) && !h.Probe(nv, cs, &st) {
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickIndexesAgree(t *testing.T) {
	// 3-hop and TC must answer identically on arbitrary digraphs.
	r := rand.New(rand.NewSource(404))
	cfg := &quick.Config{MaxCount: 30, Rand: r}
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := randDigraph(rr, 2+rr.Intn(20), 2+rr.Intn(60))
		tc := NewTC(g)
		h := NewThreeHop(g)
		var st Stats
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				a := tc.ReachesSt(graph.NodeID(u), graph.NodeID(v), &st)
				if h.ReachesSt(graph.NodeID(u), graph.NodeID(v), &st) != a {
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickChainPositionsConsistent(t *testing.T) {
	// A node's position is its SCC id and lies in its chain's position
	// range; positions on the same chain are totally ordered by
	// reachability.
	r := rand.New(rand.NewSource(405))
	cfg := &quick.Config{MaxCount: 40, Rand: r}
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := randDAG(rr, 2+rr.Intn(30), 2+rr.Intn(80))
		h := NewThreeHop(g)
		var st Stats
		for u := 0; u < g.N(); u++ {
			cu, su := h.Position(graph.NodeID(u))
			if su != h.scc.Comp[u] || su < h.chainOff[cu] || su >= h.chainOff[cu+1] {
				return false
			}
			for v := 0; v < g.N(); v++ {
				cv, sv := h.Position(graph.NodeID(v))
				if cu == cv && su < sv && !h.ReachesSt(graph.NodeID(u), graph.NodeID(v), &st) {
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

package reach

import (
	"math/rand"
	"slices"
	"testing"

	"gtpq/internal/graph"
)

// randDAG builds a random DAG: edges only from lower to higher ids.
func randDAG(r *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(n, m)
	for i := 0; i < n; i++ {
		g.AddNode("n", nil)
	}
	for e := 0; e < m; e++ {
		u := r.Intn(n - 1)
		v := u + 1 + r.Intn(n-u-1)
		g.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	g.Freeze()
	return g
}

// randDigraph builds a random directed graph that may contain cycles and
// self-loops.
func randDigraph(r *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(n, m)
	for i := 0; i < n; i++ {
		g.AddNode("n", nil)
	}
	for e := 0; e < m; e++ {
		g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)))
	}
	g.Freeze()
	return g
}

// bruteReaches is an index-free strict reachability check.
func bruteReaches(g *graph.Graph, u, v graph.NodeID) bool {
	return graph.ReachableFrom(g, u)[v]
}

func TestTCOnDiamond(t *testing.T) {
	var st Stats
	g := graph.New(4, 4)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	c := g.AddNode("c", nil)
	d := g.AddNode("d", nil)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	g.Freeze()
	tc := NewTC(g)
	if !tc.ReachesSt(a, d, &st) || !tc.ReachesSt(a, b, &st) || tc.ReachesSt(d, a, &st) || tc.ReachesSt(a, a, &st) {
		t.Error("TC diamond reachability wrong")
	}
}

func TestTCOnCycle(t *testing.T) {
	var st Stats
	g := graph.New(3, 3)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	c := g.AddNode("c", nil)
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	g.AddEdge(b, c)
	g.Freeze()
	tc := NewTC(g)
	if !tc.ReachesSt(a, a, &st) || !tc.ReachesSt(b, b, &st) {
		t.Error("cycle nodes must strictly reach themselves")
	}
	if tc.ReachesSt(c, c, &st) || tc.ReachesSt(c, a, &st) {
		t.Error("c reaches nothing")
	}
	if !tc.ReachesSt(a, c, &st) {
		t.Error("a must reach c")
	}
}

func TestTCMatchesBrute(t *testing.T) {
	var st Stats
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := randDigraph(r, 2+r.Intn(30), 2+r.Intn(90))
		tc := NewTC(g)
		for u := 0; u < g.N(); u++ {
			ru := graph.ReachableFrom(g, graph.NodeID(u))
			for v := 0; v < g.N(); v++ {
				want := ru[graph.NodeID(v)]
				if got := tc.ReachesSt(graph.NodeID(u), graph.NodeID(v), &st); got != want {
					t.Fatalf("trial %d: TC.ReachesSt(%d,%d)=%v want %v", trial, u, v, got, want)
				}
			}
		}
	}
}

func TestChainDecomposition(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		g := randDAG(r, 2+r.Intn(40), 2+r.Intn(120))
		cond := graph.Condense(g)
		n := int32(cond.NumSCC())
		chainOff, chainAt, posOf := chainDecompose(cond)
		// The cover is disjoint: posOf is a permutation of the positions.
		sccAt := make([]int32, n)
		for i := range sccAt {
			sccAt[i] = -1
		}
		for s, p := range posOf {
			if p < 0 || p >= n || sccAt[p] != -1 {
				t.Fatalf("scc %d at position %d of %d, taken or out of range", s, p, n)
			}
			sccAt[p] = int32(s)
		}
		// Chains are contiguous, non-empty and tile [0, n).
		if chainOff[0] != 0 || chainOff[len(chainOff)-1] != n || len(chainAt) != int(n) {
			t.Fatalf("chain offsets %v, %d positions, for %d sccs", chainOff, len(chainAt), n)
		}
		for cid := 1; cid < len(chainOff); cid++ {
			lo, hi := chainOff[cid-1], chainOff[cid]
			if lo >= hi {
				t.Fatalf("chain %d is the empty range [%d, %d)", cid-1, lo, hi)
			}
			for p := lo; p < hi; p++ {
				if chainAt[p] != int32(cid-1) {
					t.Fatalf("position %d of chain %d has chainAt %d", p, cid-1, chainAt[p])
				}
				if p == lo {
					continue
				}
				// Consecutive chain positions must be DAG edges.
				if !slices.Contains(cond.Out(sccAt[p-1]), sccAt[p]) {
					t.Fatalf("chain %d: %d -> %d is not a DAG edge", cid-1, sccAt[p-1], sccAt[p])
				}
			}
		}
	}
}

func TestChainCoverIsMinimalOnKnownGraph(t *testing.T) {
	// A path a->b->c->d plus edge a->c: min path cover = 2 paths? No:
	// a,b,c,d is one path using only path edges, so 1 chain.
	g := graph.New(4, 4)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	c := g.AddNode("c", nil)
	d := g.AddNode("d", nil)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, d)
	g.AddEdge(a, c)
	g.Freeze()
	h := NewThreeHop(g)
	if h.NumChains() != 1 {
		t.Errorf("NumChains = %d, want 1", h.NumChains())
	}
}

func TestThreeHopMatchesTCOnDAGs(t *testing.T) {
	var st Stats
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		g := randDAG(r, 2+r.Intn(50), 2+r.Intn(150))
		tc := NewTC(g)
		h := NewThreeHop(g)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				want := tc.ReachesSt(graph.NodeID(u), graph.NodeID(v), &st)
				got := h.ReachesSt(graph.NodeID(u), graph.NodeID(v), &st)
				if got != want {
					t.Fatalf("trial %d: ThreeHop.ReachesSt(%d,%d)=%v want %v", trial, u, v, got, want)
				}
			}
		}
	}
}

func TestThreeHopMatchesTCOnCyclicGraphs(t *testing.T) {
	var st Stats
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		g := randDigraph(r, 2+r.Intn(40), 2+r.Intn(120))
		tc := NewTC(g)
		h := NewThreeHop(g)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				want := tc.ReachesSt(graph.NodeID(u), graph.NodeID(v), &st)
				got := h.ReachesSt(graph.NodeID(u), graph.NodeID(v), &st)
				if got != want {
					t.Fatalf("trial %d: ThreeHop.ReachesSt(%d,%d)=%v want %v", trial, u, v, got, want)
				}
			}
		}
	}
}

// contourWant computes the brute-force truth for the contour questions.
func contourWant(g *graph.Graph, v graph.NodeID, S []graph.NodeID, dir string) bool {
	for _, s := range S {
		if dir == "vToS" && bruteReaches(g, v, s) {
			return true
		}
		if dir == "sToV" && bruteReaches(g, s, v) {
			return true
		}
	}
	return false
}

func TestContoursMatchBruteForce(t *testing.T) {
	var st Stats
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		var g *graph.Graph
		if trial%2 == 0 {
			g = randDAG(r, 2+r.Intn(35), 2+r.Intn(100))
		} else {
			g = randDigraph(r, 2+r.Intn(35), 2+r.Intn(100))
		}
		h := NewThreeHop(g)
		// Random node set S.
		k := 1 + r.Intn(6)
		S := make([]graph.NodeID, k)
		for i := range S {
			S[i] = graph.NodeID(r.Intn(g.N()))
		}
		cp := h.MergeLists(S, false, &st)
		cs := h.MergeLists(S, true, &st)
		for v := 0; v < g.N(); v++ {
			nv := graph.NodeID(v)
			if got, want := h.Probe(nv, cp, &st), contourWant(g, nv, S, "vToS"); got != want {
				t.Fatalf("trial %d: v=%d reaches S=%v: Probe=%v want %v", trial, v, S, got, want)
			}
			if got, want := h.Probe(nv, cs, &st), contourWant(g, nv, S, "sToV"); got != want {
				t.Fatalf("trial %d: S=%v reaches v=%d: Probe=%v want %v", trial, S, v, got, want)
			}
		}
	}
}

// TestWalkerCoversChainEntries feeds a walker each chain's nodes in its
// direction's order — descending positions down, ascending up — and
// checks that, with the contour of the other direction, its entries
// decide every node as direct contour checks do.
func TestWalkerCoversChainEntries(t *testing.T) {
	for _, tc := range []struct {
		name string
		down bool
		seed int64
		want string
	}{{"down", true, 7, "vToS"}, {"up", false, 8, "sToV"}} {
		t.Run(tc.name, func(t *testing.T) {
			var st Stats
			r := rand.New(rand.NewSource(tc.seed))
			for trial := 0; trial < 25; trial++ {
				g := randDAG(r, 2+r.Intn(35), 2+r.Intn(100))
				h := NewThreeHop(g)
				k := 1 + r.Intn(5)
				S := make([]graph.NodeID, k)
				for i := range S {
					S[i] = graph.NodeID(r.Intn(g.N()))
				}
				c := h.MergeLists(S, !tc.down, &st)

				byChain := map[int32][]graph.NodeID{}
				for v := 0; v < g.N(); v++ {
					cid, _ := h.Position(graph.NodeID(v))
					byChain[cid] = append(byChain[cid], graph.NodeID(v))
				}
				for _, nodes := range byChain {
					// Descending position down, ascending up.
					for i := 1; i < len(nodes); i++ {
						for j := i; j > 0; j-- {
							_, si := h.Position(nodes[j])
							_, sj := h.Position(nodes[j-1])
							if si == sj || (si > sj) != tc.down {
								break
							}
							nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
						}
					}
					w := h.NewWalker(tc.down, &st)
					reached := false // inherited along the chain
					for _, v := range nodes {
						hit, ambiguous := h.CheckOwn(v, c)
						got := reached || hit
						w.Walk(v, func(cid, pos int32) {
							if c.Match(cid, pos) {
								got = true
							}
						})
						if !got && ambiguous {
							got = h.ResolveAmbiguous(v, c, &st)
						}
						if want := contourWant(g, v, S, tc.want); got != want {
							t.Fatalf("walker check for %d: got %v want %v", v, got, want)
						}
						if got {
							reached = true
						}
					}
				}
			}
		})
	}
}

func TestContourSizeBoundedByChains(t *testing.T) {
	var st Stats
	r := rand.New(rand.NewSource(9))
	g := randDAG(r, 60, 150)
	h := NewThreeHop(g)
	S := make([]graph.NodeID, 20)
	for i := range S {
		S[i] = graph.NodeID(r.Intn(g.N()))
	}
	cp := h.MergeLists(S, false, &st)
	if cp.Size() > h.NumChains() {
		t.Errorf("contour size %d exceeds chain count %d", cp.Size(), h.NumChains())
	}
}

func TestStatsCounting(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	g := randDAG(r, 30, 90)
	h := NewThreeHop(g)
	st := Stats{Lookups: 7, Queries: 5}
	st.Reset()
	h.ReachesSt(0, graph.NodeID(g.N()-1), &st)
	if st.Queries != 1 {
		t.Errorf("Queries = %d, want 1", st.Queries)
	}
	var s Stats
	s.Add(st)
	if s.Queries != 1 {
		t.Error("Stats.Add failed")
	}
}

func TestThreeHopIndexSmallerThanTC(t *testing.T) {
	// On a path graph the 3-hop index should be essentially empty: one
	// chain covers everything.
	g := graph.New(100, 99)
	for i := 0; i < 100; i++ {
		g.AddNode("n", nil)
	}
	for i := 0; i < 99; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g.Freeze()
	h := NewThreeHop(g)
	if h.NumChains() != 1 {
		t.Errorf("path graph should be one chain, got %d", h.NumChains())
	}
	if h.IndexSize() != 0 {
		t.Errorf("path graph should need no list entries, got %d", h.IndexSize())
	}
}

func TestEmptyAndSingletonGraphs(t *testing.T) {
	var st Stats
	g := graph.New(0, 0)
	g.Freeze()
	h := NewThreeHop(g)
	if h.NumChains() != 0 {
		t.Errorf("empty graph chains = %d", h.NumChains())
	}

	g2 := graph.New(1, 0)
	v := g2.AddNode("x", nil)
	g2.Freeze()
	h2 := NewThreeHop(g2)
	if h2.ReachesSt(v, v, &st) {
		t.Error("singleton without self-loop must not reach itself")
	}
	g3 := graph.New(1, 1)
	w := g3.AddNode("x", nil)
	g3.AddEdge(w, w)
	g3.Freeze()
	h3 := NewThreeHop(g3)
	if !h3.ReachesSt(w, w, &st) {
		t.Error("self-loop node must reach itself")
	}
}

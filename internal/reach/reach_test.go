package reach

import (
	"fmt"
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

// TestListsMatchDefinition checks every position's decoded Lout and
// Lin rows against the definitions in the ThreeHop doc comment on
// random DAGs and cyclic digraphs, and on graphs of a dense core and a
// sparse tail (coreTail). Those mix the build's two forms of a contour,
// so that each of these occurs: an SCC whose contour is a reach set and
// whose chain successor's is one too, or is a list; an SCC whose
// contour is a reach set folded from successors whose contours are all
// lists; and an SCC whose contour is a list.
func TestListsMatchDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(505))
	entries := 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(299)
		var g *graph.Graph
		if trial%2 == 0 {
			g = randDAG(r, n, n+r.Intn(3*n))
		} else {
			g = randDigraph(r, n, n+r.Intn(2*n))
		}
		entries += checkListsMatchDefinition(t, g, fmt.Sprintf("trial %d (%d nodes)", trial, n))
	}
	for trial := 0; trial < 24; trial++ {
		coreFirst, cyclic := trial%2 == 0, trial%4 >= 2
		core, tail := 20+r.Intn(60), 60+r.Intn(200)
		g := coreTail(r, core, tail, coreFirst, cyclic)
		what := fmt.Sprintf("core/tail trial %d (core %d, tail %d, core first %v, cyclic %v)", trial, core, tail, coreFirst, cyclic)
		entries += checkListsMatchDefinition(t, g, what)
	}
	if entries < 1000 {
		t.Fatalf("%d Lout entries over all trials: the graphs are too sparse to test the lists", entries)
	}
}

// coreTail builds a graph of two blocks, a dense core and a sparse
// tail, the first block pointing into the second: the core into the
// tail when coreFirst, else the tail into the core. Each core node
// points at up to 8 later core nodes; each tail node at most at one of
// the next few tail nodes, so the tail is a forest of short paths. A
// core node feeding the tail points at up to 8 tail nodes, and one tail
// node in three feeding the core points at one core node. When cyclic,
// short back edges inside each block fold some nodes into SCCs.
func coreTail(r *rand.Rand, core, tail int, coreFirst, cyclic bool) *graph.Graph {
	n := core + tail
	g := graph.New(n, 10*n)
	for i := 0; i < n; i++ {
		g.AddNode("n", nil)
	}
	coreLo, tailLo := 0, core
	if !coreFirst {
		coreLo, tailLo = tail, 0
	}
	add := func(u, v int) { g.AddEdge(graph.NodeID(u), graph.NodeID(v)) }
	for i := 0; i < core-1; i++ {
		for d := r.Intn(9); d > 0; d-- {
			add(coreLo+i, coreLo+i+1+r.Intn(core-i-1))
		}
	}
	for i := 0; i < tail-1; i++ {
		if r.Intn(3) > 0 {
			add(tailLo+i, tailLo+i+1+r.Intn(min(4, tail-i-1)))
		}
	}
	if coreFirst {
		for i := 0; i < core; i++ {
			for d := r.Intn(9); d > 0; d-- {
				add(coreLo+i, tailLo+r.Intn(tail))
			}
		}
	} else {
		for i := 0; i < tail; i++ {
			if r.Intn(3) == 0 {
				add(tailLo+i, coreLo+r.Intn(core))
			}
		}
	}
	if cyclic {
		for _, b := range []struct{ lo, size int }{{coreLo, core}, {tailLo, tail}} {
			for k := b.size / 8; k > 0; k-- {
				i := 1 + r.Intn(b.size-1)
				add(b.lo+i, b.lo+max(0, i-1-r.Intn(3)))
			}
		}
	}
	g.Freeze()
	return g
}

// checkListsMatchDefinition checks every position's decoded Lout and
// Lin rows of the 3-hop index of g against the definitions in the
// ThreeHop doc comment, computed by BFS over the condensation, and that
// Lin is the transpose of Lout: s is in Lin(p) exactly when p is in
// Lout(s). It returns the number of Lout entries.
func checkListsMatchDefinition(t testing.TB, g *graph.Graph, what string) int {
	t.Helper()
	h := NewThreeHop(g)
	cond := graph.Condense(g)
	posOf, sccAt := tarjanIDs(h)
	k := int32(len(sccAt))
	// reaches[p][q]: the SCC at position p reaches the one at q, or p == q.
	reaches := make([][]bool, k)
	for p := range reaches {
		seen := make([]bool, k)
		seen[p] = true
		for queue := []int32{int32(p)}; len(queue) > 0; queue = queue[1:] {
			for _, w := range cond.Out(sccAt[queue[0]]) {
				if q := posOf[w]; !seen[q] {
					seen[q] = true
					queue = append(queue, q)
				}
			}
		}
		reaches[p] = seen
	}
	// onChain returns p's neighbor at offset d on its own chain, or -1.
	onChain := func(p, d int32) int32 {
		c := h.chainAt[p]
		if q := p + d; q >= h.chainOff[c] && q < h.chainOff[c+1] {
			return q
		}
		return -1
	}
	decode := func(b []byte) []int32 {
		var ps []int32
		for i, p := 0, int32(-1); i < len(b); {
			p, i = nextGap(b, i, p)
			ps = append(ps, p)
		}
		return ps
	}
	transposed := make([][]int32, k) // per position p: the s with p in Lout(s)
	for s := int32(0); s < k; s++ {
		var lout, lin []int32
		for c := int32(0); c < int32(h.NumChains()); c++ {
			if c == h.chainAt[s] {
				continue
			}
			lo, hi := h.chainOff[c], h.chainOff[c+1]
			// Lout: the smallest position on c that s reaches, unless
			// s's successor on its own chain reaches it too.
			for p := lo; p < hi; p++ {
				if reaches[s][p] {
					if next := onChain(s, 1); next == -1 || !reaches[next][p] {
						lout = append(lout, p)
					}
					break
				}
			}
			// Lin: the largest position on c reaching s, unless it
			// reaches s's predecessor on its own chain too.
			for p := hi - 1; p >= lo; p-- {
				if reaches[p][s] {
					if prev := onChain(s, -1); prev == -1 || !reaches[p][prev] {
						lin = append(lin, p)
					}
					break
				}
			}
		}
		gotOut, gotIn := decode(h.lout.row(s)), decode(h.lin.row(s))
		if !slices.Equal(gotOut, lout) {
			t.Fatalf("%s: Lout(%d) = %v, want %v", what, s, gotOut, lout)
		}
		if !slices.Equal(gotIn, lin) {
			t.Fatalf("%s: Lin(%d) = %v, want %v", what, s, gotIn, lin)
		}
		for _, p := range gotOut {
			transposed[p] = append(transposed[p], s)
		}
	}
	for p := int32(0); p < k; p++ {
		if got := decode(h.lin.row(p)); !slices.Equal(got, transposed[p]) {
			t.Fatalf("%s: Lin(%d) = %v, but the transpose of Lout gives %v", what, p, got, transposed[p])
		}
	}
	if h.lout.n != h.lin.n {
		t.Fatalf("%s: %d Lout entries, %d Lin entries", what, h.lout.n, h.lin.n)
	}
	return h.lout.n
}

// FuzzBuildMatchesDefinition builds the 3-hop index of a digraph of at
// most 64 nodes decoded from the input and checks its Lout and Lin rows
// against their definitions. The first byte sets the node count, 1 +
// b%64, and each later pair of bytes adds the edge (u%n, v%n), so
// self-loops, cycles and repeated edges all occur. Over at most 64
// positions a reach set is at most two words long, so most contours of
// a graph with a few edges per node take that form.
func FuzzBuildMatchesDefinition(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3})       // a path
	f.Add([]byte{4, 0, 1, 1, 2, 2, 0, 2, 3}) // a cycle feeding a sink
	f.Add([]byte{5, 0, 0, 3, 4, 4, 3, 1, 2}) // a self-loop and a 2-cycle
	r := rand.New(rand.NewSource(506))
	for _, n := range []int{16, 40, 64} {
		b := []byte{byte(n - 1)}
		for e := 0; e < 4*n; e++ {
			u := r.Intn(n - 1)
			b = append(b, byte(u), byte(u+1+r.Intn(n-u-1))) // a DAG edge
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		g := graph.New(n, len(data)/2)
		for i := 0; i < n; i++ {
			g.AddNode("n", nil)
		}
		for i := 1; i+1 < len(data); i += 2 {
			g.AddEdge(graph.NodeID(int(data[i])%n), graph.NodeID(int(data[i+1])%n))
		}
		g.Freeze()
		checkListsMatchDefinition(t, g, fmt.Sprintf("%d nodes", n))
	})
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
	st := Stats{Lookups: 7}
	st.Reset()
	if st.Lookups != 0 {
		t.Errorf("Lookups = %d after Reset, want 0", st.Lookups)
	}
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		h.ReachesSt(u, graph.NodeID(g.N()-1), &st)
	}
	if st.Lookups == 0 {
		t.Fatal("probes to every node charged no lookups")
	}
	s := Stats{Lookups: 1}
	s.Add(st)
	if s.Lookups != st.Lookups+1 {
		t.Errorf("Stats.Add gave %d lookups, want %d", s.Lookups, st.Lookups+1)
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

package gtea

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/delta"
	"gtpq/internal/gen"
	"gtpq/internal/reach"
)

// TestMatchingGraphMatchesDefinition checks the shrunk forest and the
// matching graph's rows (§4.3) against their definitions, over random
// cyclic and acyclic graphs and random queries with PC edges, negation
// and disjunction, on the 3-hop index, the transitive closure and a
// delta overlay, with the planner on and off. Row i of a kept edge
// (u, c) must list, ascending, exactly the positions j where mat[c][j]
// is an out-neighbour of mat[u][i] (PC, once per data edge) or is
// strictly reachable from it according to a transitive closure built
// apart from the engine (AD). The forest must hold the components of
// the kept nodes: roots, each kept node's kept children, and each
// component's outputs in preorder.
func TestMatchingGraphMatchesDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	labels := planTestLabels[:3]
	entries, forks := 0, 0
	for trial := 0; trial < 40; trial++ {
		base := gen.Graph(r, 20+r.Intn(40), 30+r.Intn(100), labels, trial%2 == 0)
		batches := []delta.Batch{overlayBatch(base)}
		ext, err := delta.Extend(base, batches)
		if err != nil {
			t.Fatal(err)
		}
		q := gen.Query(r, 2+r.Intn(6), labels, true, true)
		for _, kind := range []string{"threehop", "tc", delta.KindPrefix + "threehop"} {
			baseKind, overlay := strings.CutPrefix(kind, delta.KindPrefix)
			h, err := reach.Build(baseKind, base)
			if err != nil {
				t.Fatal(err)
			}
			g := base
			if overlay {
				g, h = ext, delta.NewOverlay(h, base.N(), ext.N(), batches)
			}
			oracle := reach.NewTC(g)
			for _, noPlan := range []bool{false, true} {
				name := fmt.Sprintf("trial %d %s noPlan=%v", trial, kind, noPlan)
				e, f := checkMatchingGraph(t, name, NewWithIndex(g, h, Options{NoPlan: noPlan}), oracle, q)
				entries += e
				forks += f
			}
		}
	}
	// The planted faults this test must catch need non-empty rows and
	// nodes with several kept children.
	if entries == 0 || forks == 0 {
		t.Fatalf("fixtures checked %d row entries and %d kept nodes with several kept children", entries, forks)
	}
}

// checkMatchingGraph runs q's evaluation up to the matching graph and
// checks the forest and every row against their definitions. It returns
// the number of row entries checked and of kept nodes with two or more
// kept children.
func checkMatchingGraph(t *testing.T, name string, e *Engine, oracle *reach.TC, q *core.Query) (entries, forks int) {
	t.Helper()
	ec := e.newContext()
	defer e.release(ec)
	outs := q.Outputs()
	prime, alive := ec.pruneAll(q, outs, nil)
	if !alive {
		return 0, 0
	}
	// Kept: the prime subtree minus the strict ancestors of the output
	// LCA and every node with a single candidate.
	lca := outs[0]
	for _, o := range outs[1:] {
		lca = q.LCA(lca, o)
	}
	kept := make([]bool, len(q.Nodes))
	for u := range kept {
		kept[u] = prime[u] && !q.IsAncestorOf(u, lca) && len(ec.mat[u]) != 1
	}
	f, _ := ec.shrink(q, prime, outs)
	mg := ec.buildMatchingGraph(q, f)

	var roots []int
	wantOuts := make([][]int, len(q.Nodes))
	for _, u := range q.PreOrder() {
		if !kept[u] {
			continue
		}
		root := u
		for p := q.Nodes[root].Parent; p != -1 && kept[p]; p = q.Nodes[root].Parent {
			root = p
		}
		if root == u {
			roots = append(roots, u)
		}
		if q.Nodes[u].Output {
			wantOuts[root] = append(wantOuts[root], u)
		}
		var kids []int
		for _, c := range q.Nodes[u].Children {
			if kept[c] {
				kids = append(kids, c)
			}
		}
		if !slices.Equal(f.kids[u], kids) {
			t.Errorf("%s: kids[%d] = %v, want %v\n%s", name, u, f.kids[u], kids, q)
		}
		if len(kids) > 1 {
			forks++
		}
	}
	if !slices.Equal(f.roots, roots) {
		t.Errorf("%s: roots = %v, want %v\n%s", name, f.roots, roots, q)
	}
	for u := range q.Nodes {
		if !slices.Equal(f.outs[u], wantOuts[u]) {
			t.Errorf("%s: outs[%d] = %v, want %v\n%s", name, u, f.outs[u], wantOuts[u], q)
		}
	}

	var st reach.Stats
	for _, u := range q.PreOrder() {
		for _, c := range f.kids[u] {
			n := len(ec.mat[u])
			if len(mg.off[c]) != n+1 || mg.off[c][0] != 0 || int(mg.off[c][n]) != len(mg.at[c]) {
				t.Errorf("%s: edge (%d, %d): off %v over %d entries, want %d rows", name, u, c, mg.off[c], len(mg.at[c]), n)
				continue
			}
			for i, v := range ec.mat[u] {
				var want []int32
				for j, w := range ec.mat[c] {
					if q.Nodes[c].PEdge == core.AD {
						if oracle.ReachesSt(v, w, &st) {
							want = append(want, int32(j))
						}
						continue
					}
					for _, x := range ec.g.Out(v) {
						if x == w {
							want = append(want, int32(j))
						}
					}
				}
				if got := mg.row(c, i); !slices.Equal(got, want) {
					t.Errorf("%s: edge (%d, %d) row %d (node %d) = %v, want %v\n%s", name, u, c, i, v, got, want, q)
				}
				entries += len(want)
			}
		}
	}
	return entries, forks
}

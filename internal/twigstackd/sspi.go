package twigstackd

import (
	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// SSPI is the surrogate & surplus predecessor index of Chen et al.
// (VLDB'05) that TwigStackD uses: a spanning forest of the condensation
// DAG gives interval (tree-cover) labels answering most queries in O(1);
// the remaining reachability flows through per-node lists of non-tree
// ("surplus") predecessors that are chased recursively. On dense, deep
// graphs the recursive chase is the weakness §5.2 observes.
type SSPI struct {
	cond *graph.Condensation

	// Spanning-forest interval labels per SCC.
	start, end []int32
	parent     []int32
	// surplus[s]: sources of non-tree edges into s.
	surplus [][]int32

	stats reach.Stats
	epoch int32
	seen  []int32
}

// NewSSPI builds the index for g.
func NewSSPI(g *graph.Graph) *SSPI {
	cond := graph.Condense(g)
	n := cond.NumSCC()
	x := &SSPI{
		cond:    cond,
		start:   make([]int32, n),
		end:     make([]int32, n),
		parent:  make([]int32, n),
		surplus: make([][]int32, n),
		seen:    make([]int32, n),
	}
	for i := range x.parent {
		x.parent[i] = -1
		x.start[i] = -1
	}
	// Spanning forest: first DAG in-edge encountered in topological order
	// (descending SCC ids) becomes the tree edge; the rest are surplus.
	for s := int32(n) - 1; s >= 0; s-- {
		for _, w := range cond.Out(s) {
			if x.parent[w] == -1 {
				x.parent[w] = s
			}
		}
	}
	for s := int32(0); s < int32(n); s++ {
		for _, p := range cond.In(s) {
			if p != x.parent[s] {
				x.surplus[s] = append(x.surplus[s], p)
			}
		}
	}
	// Interval labels by iterative DFS over tree children.
	kids := make([][]int32, n)
	for s := int32(0); s < int32(n); s++ {
		if p := x.parent[s]; p != -1 {
			kids[p] = append(kids[p], s)
		}
	}
	var counter int32
	for root := int32(0); root < int32(n); root++ {
		if x.parent[root] != -1 || x.start[root] != -1 {
			continue
		}
		type frame struct {
			s  int32
			ci int
		}
		stack := []frame{{s: root}}
		x.start[root] = counter
		counter++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ci < len(kids[f.s]) {
				w := kids[f.s][f.ci]
				f.ci++
				x.start[w] = counter
				counter++
				stack = append(stack, frame{s: w})
				continue
			}
			x.end[f.s] = counter
			counter++
			stack = stack[:len(stack)-1]
		}
	}
	return x
}

// Reaches reports whether there is a non-empty path from u to v.
func (x *SSPI) Reaches(u, v graph.NodeID) bool {
	su, sv := x.cond.Comp[u], x.cond.Comp[v]
	if su == sv {
		return x.cond.Nontrivial(su)
	}
	x.epoch++
	return x.sccReaches(su, sv)
}

// covers reports whether a's spanning-tree interval contains b.
func (x *SSPI) covers(a, b int32) bool {
	return x.start[a] <= x.start[b] && x.end[b] <= x.end[a]
}

// sccReaches chases surplus predecessors backwards from sv: sv is
// reachable from su iff su's interval covers sv, or some surplus
// predecessor of a tree ancestor of sv is reachable from su.
func (x *SSPI) sccReaches(su, sv int32) bool {
	if x.covers(su, sv) {
		return true
	}
	stack := []int32{sv}
	x.seen[sv] = x.epoch
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Walk t and its tree ancestors, following every surplus edge.
		for a := t; a != -1; a = x.parent[a] {
			for _, p := range x.surplus[a] {
				x.stats.Lookups++
				if p == su || x.covers(su, p) {
					return true
				}
				if x.seen[p] != x.epoch {
					x.seen[p] = x.epoch
					stack = append(stack, p)
				}
			}
			if x.parent[a] != -1 && x.seen[x.parent[a]] == x.epoch {
				break // ancestors already expanded via another path
			}
			if x.parent[a] != -1 {
				x.seen[x.parent[a]] = x.epoch
			}
		}
	}
	return false
}

// Stats returns the lookup counters.
func (x *SSPI) Stats() *reach.Stats { return &x.stats }

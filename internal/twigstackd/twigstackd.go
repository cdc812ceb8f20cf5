// Package twigstackd implements TwigStackD (Chen, Gupta, Kurul,
// VLDB'05): twig pattern matching over DAG-shaped data. It keeps the two
// phases the paper's evaluation dissects (§5): a pre-filtering process
// of two full graph traversals that keeps only nodes participating in
// matches, then a pattern-matching phase that expands partial solutions
// buffered in pools, checking edges with the SSPI reachability index.
// The recursive SSPI chase on dense, deep graphs is the weakness
// Fig 9(b-d) exposes.
package twigstackd

import (
	"gtpq/internal/core"
	"gtpq/internal/graph"
)

// Stats mirrors the paper's I/O-cost metrics.
type Stats struct {
	// Input counts data-node visits (the pre-filter traversals dominate).
	Input int64
	// Index counts SSPI surplus entries chased.
	Index int64
	// Intermediate counts pool entries and emitted tuples.
	Intermediate int64
}

// Engine evaluates conjunctive TPQs over a digraph using SSPI.
type Engine struct {
	G    *graph.Graph
	X    *SSPI
	cond *graph.Condensation
	stat Stats
}

// New builds a TwigStackD engine (and its SSPI index) for g.
func New(g *graph.Graph) *Engine {
	g.Freeze()
	return &Engine{G: g, X: NewSSPI(g), cond: graph.Condense(g)}
}

// Stats returns the counters of the most recent Eval.
func (e *Engine) Stats() Stats { return e.stat }

// Eval evaluates the conjunctive query q (all query nodes required) and
// projects matches onto the output nodes.
func (e *Engine) Eval(q *core.Query) *core.Answer {
	e.stat = Stats{}
	ans := core.NewAnswer(q.Outputs())

	mat := e.preFilter(q)
	for _, u := range q.PreOrder() {
		if len(mat[u]) == 0 {
			ans.Canonicalize()
			return ans
		}
	}

	// Pattern-matching phase: partial solutions per query node expand
	// bottom-up through pools; every parent/child candidate pair is
	// checked against SSPI (the pool edge-checking cost the paper
	// quotes).
	type poolEntry struct {
		v        graph.NodeID
		branches [][]graph.NodeID // matched child candidates per query child
	}
	pools := make(map[int]map[graph.NodeID]*poolEntry, len(q.Nodes))
	baseLookups := e.X.Stats().Lookups
	for _, u := range q.PostOrder() {
		pool := make(map[graph.NodeID]*poolEntry, len(mat[u]))
		kids := q.Nodes[u].Children
		for _, v := range mat[u] {
			e.stat.Input++
			entry := &poolEntry{v: v, branches: make([][]graph.NodeID, len(kids))}
			ok := true
			for i, c := range kids {
				for w := range pools[c] {
					var hit bool
					if q.Nodes[c].PEdge == core.PC {
						hit = e.G.HasEdge(v, w)
					} else {
						hit = e.X.Reaches(v, w)
					}
					if hit {
						entry.branches[i] = append(entry.branches[i], w)
					}
				}
				if len(entry.branches[i]) == 0 {
					ok = false
					break
				}
			}
			if ok {
				pool[v] = entry
				e.stat.Intermediate++
			}
		}
		pools[u] = pool
	}
	e.stat.Index = e.X.Stats().Lookups - baseLookups

	// Enumerate full matches from the pools.
	outPos := make(map[int]int, len(ans.Out))
	for i, o := range ans.Out {
		outPos[o] = i
	}
	tuple := make([]graph.NodeID, len(ans.Out))
	var emit func(order []int, i int, images map[int]graph.NodeID)
	order := q.PreOrder()
	emit = func(order []int, i int, images map[int]graph.NodeID) {
		if i == len(order) {
			for o, pos := range outPos {
				tuple[pos] = images[o]
			}
			ans.Add(append([]graph.NodeID(nil), tuple...))
			e.stat.Intermediate += int64(len(tuple))
			return
		}
		u := order[i]
		if u == q.Root {
			for v := range pools[u] {
				images[u] = v
				emit(order, i+1, images)
			}
			return
		}
		p := q.Nodes[u].Parent
		pe := pools[p][images[p]]
		// Which branch slot does u occupy under its parent?
		slot := -1
		for si, c := range q.Nodes[p].Children {
			if c == u {
				slot = si
			}
		}
		for _, v := range pe.branches[slot] {
			if _, ok := pools[u][v]; !ok {
				continue
			}
			images[u] = v
			emit(order, i+1, images)
		}
	}
	emit(order, 0, make(map[int]graph.NodeID, len(q.Nodes)))
	ans.Canonicalize()
	return ans
}

// preFilter is the two-traversal pre-filtering process: a bottom-up pass
// over the condensation keeps nodes satisfying the downward twig
// constraints, a top-down pass removes nodes unreachable from surviving
// root candidates.
func (e *Engine) preFilter(q *core.Query) [][]graph.NodeID {
	n := e.G.N()
	nq := len(q.Nodes)
	down := make([][]bool, nq) // down[u][v]: v matches subtree(u)

	// Bottom-up (one reverse-topological traversal per query node —
	// the "first traversal").
	for _, u := range q.PostOrder() {
		du := make([]bool, n)
		kids := q.Nodes[u].Children
		// reachKid[i][s]: members of SCC s strictly reach a down-match of
		// the i-th (AD) child.
		reachKid := make([][]bool, len(kids))
		for i, c := range kids {
			if q.Nodes[c].PEdge == core.PC {
				continue
			}
			contains := make([]bool, e.cond.NumSCC())
			for v := 0; v < n; v++ {
				if down[c][v] {
					contains[e.cond.Comp[v]] = true
				}
			}
			r := make([]bool, e.cond.NumSCC())
			// Reverse topological order: successors first.
			for s := int32(0); s < int32(e.cond.NumSCC()); s++ {
				hit := e.cond.Nontrivial(s) && contains[s]
				for _, t := range e.cond.Out(s) {
					if r[t] || contains[t] {
						hit = true
						break
					}
				}
				r[s] = hit
			}
			reachKid[i] = r
		}
		for v := 0; v < n; v++ {
			e.stat.Input++
			nv := graph.NodeID(v)
			if !q.Nodes[u].Attr.Matches(e.G, nv) {
				continue
			}
			ok := true
			for i, c := range kids {
				if q.Nodes[c].PEdge == core.PC {
					hit := false
					for _, w := range e.G.Out(nv) {
						if down[c][w] {
							hit = true
							break
						}
					}
					if !hit {
						ok = false
						break
					}
				} else if !reachKid[i][e.cond.Comp[v]] {
					ok = false
					break
				}
			}
			du[v] = ok
		}
		down[u] = du
	}

	// Top-down (the "second traversal"): keep candidates reachable from
	// surviving parents.
	up := make([][]bool, nq)
	for _, u := range q.PreOrder() {
		if u == q.Root {
			up[u] = down[u]
			continue
		}
		p := q.Nodes[u].Parent
		uv := make([]bool, n)
		if q.Nodes[u].PEdge == core.PC {
			for v := 0; v < n; v++ {
				if up[p][v] {
					for _, w := range e.G.Out(graph.NodeID(v)) {
						if down[u][w] {
							uv[w] = true
						}
					}
				}
			}
		} else {
			// Forward topological sweep: reachable-from-surviving-parent.
			contains := make([]bool, e.cond.NumSCC())
			for v := 0; v < n; v++ {
				if up[p][v] {
					contains[e.cond.Comp[v]] = true
				}
			}
			r := make([]bool, e.cond.NumSCC())
			for s := int32(e.cond.NumSCC()) - 1; s >= 0; s-- {
				hit := e.cond.Nontrivial(s) && contains[s]
				for _, t := range e.cond.In(s) {
					if r[t] || contains[t] {
						hit = true
						break
					}
				}
				r[s] = hit
			}
			for v := 0; v < n; v++ {
				uv[v] = down[u][v] && r[e.cond.Comp[v]]
			}
		}
		for v := 0; v < n; v++ {
			e.stat.Input++
		}
		up[u] = uv
	}

	mat := make([][]graph.NodeID, nq)
	for u := 0; u < nq; u++ {
		for v := 0; v < n; v++ {
			if up[u][v] {
				mat[u] = append(mat[u], graph.NodeID(v))
			}
		}
	}
	return mat
}

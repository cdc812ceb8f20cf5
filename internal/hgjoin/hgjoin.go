// Package hgjoin implements HGJoin (Wang et al., PVLDB'08), the
// hash-based structural-join baseline: the tree pattern is decomposed
// into its edges, each edge's match pairs are produced with a
// reachability index, and the pair sets are joined following a plan
// (an order over the query edges keeping the joined subgraph
// connected).
//
// Two variants match the paper's §5 setup:
//
//   - HGJoin+ (Plus): intermediate results are tuples; the reported time
//     is the best over a small set of plans (a selectivity-greedy plan
//     plus random connected orders), standing in for the paper's
//     exhaustive plan enumeration.
//   - HGJoin* (Star): intermediate results are represented as a graph —
//     per-edge adjacency over candidate sets with recursive deletion of
//     unsupported nodes — and tuples are only enumerated at the end,
//     the paper's own ablation of the graph representation idea.
package hgjoin

import (
	"math/rand"
	"sort"

	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// Stats mirrors the paper's I/O-cost metrics.
type Stats struct {
	// Input counts data nodes scanned from candidate lists.
	Input int64
	// Index counts reachability-index lookups.
	Index int64
	// Intermediate counts tuple elements (Plus) or match-graph
	// nodes+edges (Star).
	Intermediate int64
}

// Engine evaluates conjunctive TPQs by structural joins. Any
// reach.ContourIndex backend works; the per-edge joins only need
// single-source successor contours.
type Engine struct {
	G *graph.Graph
	H reach.ContourIndex
	// Plans is the number of random plans tried in addition to the
	// greedy one (Plus only); 0 means greedy only.
	Plans int
	rng   *rand.Rand
	stat  Stats
}

// New builds an HGJoin engine over g, constructing its reachability
// index.
func New(g *graph.Graph) *Engine {
	g.Freeze()
	return &Engine{G: g, H: reach.NewThreeHop(g), Plans: 2, rng: rand.New(rand.NewSource(1))}
}

// NewWithIndex shares an existing index.
func NewWithIndex(g *graph.Graph, h reach.ContourIndex) *Engine {
	return &Engine{G: g, H: h, Plans: 2, rng: rand.New(rand.NewSource(1))}
}

// Stats returns the counters of the most recent Eval.
func (e *Engine) Stats() Stats { return e.stat }

// qedge is a query edge (parent, child).
type qedge struct{ p, c int }

// EvalPlus evaluates q with tuple-represented intermediates, returning
// the best plan's answer (all plans produce the same answer; the best
// is the one generating the fewest intermediate tuple elements, the
// paper's stand-in for fastest).
func (e *Engine) EvalPlus(q *core.Query) *core.Answer {
	e.stat = Stats{}
	mat := e.candidates(q)
	edges := queryEdges(q)
	if len(edges) == 0 {
		// Single-node query.
		ans := core.NewAnswer(q.Outputs())
		for _, v := range mat[q.Root] {
			ans.Add([]graph.NodeID{v})
		}
		ans.Canonicalize()
		return ans
	}
	pairs := e.edgePairs(q, mat, edges)

	plans := [][]int{greedyPlan(q, mat, edges)}
	for i := 0; i < e.Plans; i++ {
		plans = append(plans, randomPlan(e.rng, q, edges))
	}
	var best *core.Answer
	var bestCost int64 = 1 << 62
	var bestStats Stats
	base := e.stat
	for _, plan := range plans {
		e.stat = base
		ans, cost := e.runPlan(q, edges, pairs, plan)
		if cost < bestCost {
			bestCost = cost
			best = ans
			bestStats = e.stat
		}
	}
	e.stat = bestStats
	return best
}

// EvalStar evaluates q with graph-represented intermediates.
func (e *Engine) EvalStar(q *core.Query) *core.Answer {
	e.stat = Stats{}
	mat := e.candidates(q)
	edges := queryEdges(q)
	ans := core.NewAnswer(q.Outputs())
	if len(edges) == 0 {
		for _, v := range mat[q.Root] {
			ans.Add([]graph.NodeID{v})
		}
		ans.Canonicalize()
		return ans
	}
	pairs := e.edgePairs(q, mat, edges)

	// Graph representation: adjacency per edge, then recursive deletion
	// of nodes lacking support on any incident edge.
	adj := make([]map[graph.NodeID][]graph.NodeID, len(edges))  // parent -> children
	radj := make([]map[graph.NodeID][]graph.NodeID, len(edges)) // child -> parents
	for i, ps := range pairs {
		adj[i] = map[graph.NodeID][]graph.NodeID{}
		radj[i] = map[graph.NodeID][]graph.NodeID{}
		for _, pr := range ps {
			adj[i][pr[0]] = append(adj[i][pr[0]], pr[1])
			radj[i][pr[1]] = append(radj[i][pr[1]], pr[0])
			e.stat.Intermediate += 2
		}
	}
	alive := make([]map[graph.NodeID]bool, len(q.Nodes))
	for u := range q.Nodes {
		alive[u] = map[graph.NodeID]bool{}
		for _, v := range mat[u] {
			alive[u][v] = true
		}
	}
	// Recursive deletion to a fixpoint: a candidate needs a surviving
	// partner on every incident query edge.
	for changed := true; changed; {
		changed = false
		for i, ed := range edges {
			for v := range alive[ed.p] {
				ok := false
				for _, w := range adj[i][v] {
					if alive[ed.c][w] {
						ok = true
						break
					}
				}
				if !ok {
					delete(alive[ed.p], v)
					changed = true
				}
			}
			for w := range alive[ed.c] {
				ok := false
				for _, v := range radj[i][w] {
					if alive[ed.p][v] {
						ok = true
						break
					}
				}
				if !ok {
					delete(alive[ed.c], w)
					changed = true
				}
			}
		}
	}
	// Enumerate from the pruned graph representation.
	outPos := make(map[int]int, len(ans.Out))
	for i, o := range ans.Out {
		outPos[o] = i
	}
	order := q.PreOrder()
	childIdx := make(map[qedge]int, len(edges))
	for i, ed := range edges {
		childIdx[ed] = i
	}
	tuple := make([]graph.NodeID, len(ans.Out))
	images := make(map[int]graph.NodeID, len(q.Nodes))
	var emit func(i int)
	emit = func(i int) {
		if i == len(order) {
			for o, pos := range outPos {
				tuple[pos] = images[o]
			}
			ans.Add(append([]graph.NodeID(nil), tuple...))
			return
		}
		u := order[i]
		if u == q.Root {
			for v := range alive[u] {
				images[u] = v
				emit(i + 1)
			}
			return
		}
		ei := childIdx[qedge{q.Nodes[u].Parent, u}]
		for _, w := range adj[ei][images[q.Nodes[u].Parent]] {
			if !alive[u][w] {
				continue
			}
			images[u] = w
			emit(i + 1)
		}
	}
	emit(0)
	ans.Canonicalize()
	return ans
}

func (e *Engine) candidates(q *core.Query) [][]graph.NodeID {
	mat := make([][]graph.NodeID, len(q.Nodes))
	for u := range q.Nodes {
		mat[u] = append([]graph.NodeID(nil), core.Candidates(e.G, q.Nodes[u].Attr)...)
		e.stat.Input += int64(len(mat[u]))
	}
	return mat
}

func queryEdges(q *core.Query) []qedge {
	var out []qedge
	for _, u := range q.PreOrder() {
		for _, c := range q.Nodes[u].Children {
			out = append(out, qedge{u, c})
		}
	}
	return out
}

// edgePairs computes the match pairs of every query edge with the
// reachability index (the per-edge structural join).
func (e *Engine) edgePairs(q *core.Query, mat [][]graph.NodeID, edges []qedge) [][][2]graph.NodeID {
	// Per-call sink: sharing an index between engines must not leak
	// lookup counts across them.
	var rst reach.Stats
	pairs := make([][][2]graph.NodeID, len(edges))
	for i, ed := range edges {
		if q.Nodes[ed.c].PEdge == core.PC {
			inC := make(map[graph.NodeID]bool, len(mat[ed.c]))
			for _, w := range mat[ed.c] {
				inC[w] = true
			}
			for _, v := range mat[ed.p] {
				for _, w := range e.G.Out(v) {
					if inC[w] {
						pairs[i] = append(pairs[i], [2]graph.NodeID{v, w})
					}
				}
			}
			continue
		}
		for _, v := range mat[ed.p] {
			cs := e.H.SuccContour([]graph.NodeID{v}, &rst)
			for _, w := range mat[ed.c] {
				if cs.Probe(w, &rst) {
					pairs[i] = append(pairs[i], [2]graph.NodeID{v, w})
				}
			}
		}
	}
	e.stat.Index += rst.Lookups
	return pairs
}

// runPlan joins the edge pair lists in the plan's order, tuples as
// intermediates; it returns the answer and the intermediate-element
// count as the plan's cost.
func (e *Engine) runPlan(q *core.Query, edges []qedge, pairs [][][2]graph.NodeID, plan []int) (*core.Answer, int64) {
	n := len(q.Nodes)
	var cost int64
	bound := make([]bool, n)

	first := plan[0]
	var acc [][]graph.NodeID
	for _, pr := range pairs[first] {
		t := make([]graph.NodeID, n)
		for i := range t {
			t[i] = -1
		}
		t[edges[first].p], t[edges[first].c] = pr[0], pr[1]
		acc = append(acc, t)
		cost += 2
	}
	bound[edges[first].p], bound[edges[first].c] = true, true

	for _, ei := range plan[1:] {
		ed := edges[ei]
		// One endpoint is bound (plans keep the subgraph connected).
		joinOnParent := bound[ed.p]
		idx := make(map[graph.NodeID][][2]graph.NodeID)
		for _, pr := range pairs[ei] {
			k := pr[0]
			if !joinOnParent {
				k = pr[1]
			}
			idx[k] = append(idx[k], pr)
		}
		var next [][]graph.NodeID
		for _, t := range acc {
			var key graph.NodeID
			if joinOnParent {
				key = t[ed.p]
			} else {
				key = t[ed.c]
			}
			for _, pr := range idx[key] {
				// If both endpoints bound, pair must agree.
				if joinOnParent && bound[ed.c] && t[ed.c] != pr[1] {
					continue
				}
				nt := append([]graph.NodeID(nil), t...)
				nt[ed.p], nt[ed.c] = pr[0], pr[1]
				next = append(next, nt)
				cost += int64(n)
			}
		}
		acc = next
		bound[ed.p], bound[ed.c] = true, true
		if len(acc) == 0 {
			break
		}
	}
	e.stat.Intermediate += cost

	ans := core.NewAnswer(q.Outputs())
	for _, t := range acc {
		row := make([]graph.NodeID, len(ans.Out))
		for i, o := range ans.Out {
			row[i] = t[o]
		}
		ans.Add(row)
	}
	ans.Canonicalize()
	return ans, cost
}

// greedyPlan orders edges by ascending estimated selectivity
// (|mat(p)| * |mat(c)|), keeping the join graph connected.
func greedyPlan(q *core.Query, mat [][]graph.NodeID, edges []qedge) []int {
	type scored struct {
		i    int
		cost int64
	}
	var s []scored
	for i, ed := range edges {
		s = append(s, scored{i, int64(len(mat[ed.p])) * int64(len(mat[ed.c]))})
	}
	sort.Slice(s, func(a, b int) bool { return s[a].cost < s[b].cost })
	return connectedOrder(edges, func(remaining []int) int {
		for _, sc := range s {
			for _, r := range remaining {
				if r == sc.i {
					return sc.i
				}
			}
		}
		return remaining[0]
	})
}

// randomPlan returns a uniformly random connected edge order.
func randomPlan(rng *rand.Rand, q *core.Query, edges []qedge) []int {
	return connectedOrder(edges, func(remaining []int) int {
		return remaining[rng.Intn(len(remaining))]
	})
}

// connectedOrder builds an edge order where each prefix is connected,
// choosing among eligible edges with pick.
func connectedOrder(edges []qedge, pick func(eligible []int) int) []int {
	used := make([]bool, len(edges))
	inTree := map[int]bool{}
	var plan []int
	for len(plan) < len(edges) {
		var eligible []int
		for i, ed := range edges {
			if used[i] {
				continue
			}
			if len(plan) == 0 || inTree[ed.p] || inTree[ed.c] {
				eligible = append(eligible, i)
			}
		}
		choice := pick(eligible)
		used[choice] = true
		inTree[edges[choice].p] = true
		inTree[edges[choice].c] = true
		plan = append(plan, choice)
	}
	return plan
}

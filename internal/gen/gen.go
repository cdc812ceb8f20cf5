// Package gen provides deterministic random data-graph and query
// generators, and a few fixed fixtures, shared by property tests and
// benchmarks across the repository (gtea's oracle tests and BenchmarkEval, the internal/equiv
// driver). Everything is driven by a caller-owned
// *rand.Rand, so a fixed seed reproduces the exact workload.
package gen

import (
	"math/rand"

	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/logic"
)

// Graph builds a random labeled digraph with n nodes and m edges over
// the label alphabet; acyclic (edges only forward in id order) when dag
// is true. The graph is frozen.
func Graph(r *rand.Rand, n, m int, labels []string, dag bool) *graph.Graph {
	g := graph.New(n, m)
	for i := 0; i < n; i++ {
		g.AddNode(labels[r.Intn(len(labels))], nil)
	}
	for e := 0; e < m; e++ {
		if dag {
			u := r.Intn(n - 1)
			g.AddEdge(graph.NodeID(u), graph.NodeID(u+1+r.Intn(n-u-1)))
		} else {
			g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)))
		}
	}
	g.Freeze()
	return g
}

// Forest builds blocks independent random DAGs in one graph: block b
// occupies the id range [b*nPerBlock, (b+1)*nPerBlock) and edges never
// cross blocks, so the graph has at least blocks weakly-connected
// components — the natural input for WCC-based sharding. The graph is
// frozen.
func Forest(r *rand.Rand, blocks, nPerBlock, mPerBlock int, labels []string) *graph.Graph {
	g := graph.New(blocks*nPerBlock, blocks*mPerBlock)
	for b := 0; b < blocks; b++ {
		for i := 0; i < nPerBlock; i++ {
			g.AddNode(labels[r.Intn(len(labels))], nil)
		}
	}
	for b := 0; b < blocks; b++ {
		base := b * nPerBlock
		for e := 0; e < mPerBlock; e++ {
			u := r.Intn(nPerBlock - 1)
			v := u + 1 + r.Intn(nPerBlock-u-1)
			g.AddEdge(graph.NodeID(base+u), graph.NodeID(base+v))
		}
	}
	g.Freeze()
	return g
}

// ZipfForest builds a Forest whose labels follow a Zipf distribution
// (s=1.3) instead of the uniform draw: labels[0] is hot (covering
// roughly half the vertices), the tail labels are rare: the skew under
// which a hot-label node constrained by rare-label children is pruned
// far faster by a set intersection than by per-candidate probes (the
// planner's bitset contours). The graph is frozen.
func ZipfForest(r *rand.Rand, blocks, nPerBlock, mPerBlock int, labels []string) *graph.Graph {
	z := rand.NewZipf(r, 1.3, 1, uint64(len(labels)-1))
	g := graph.New(blocks*nPerBlock, blocks*mPerBlock)
	for b := 0; b < blocks; b++ {
		for i := 0; i < nPerBlock; i++ {
			g.AddNode(labels[z.Uint64()], nil)
		}
	}
	for b := 0; b < blocks; b++ {
		base := b * nPerBlock
		for e := 0; e < mPerBlock; e++ {
			u := r.Intn(nPerBlock - 1)
			v := u + 1 + r.Intn(nPerBlock-u-1)
			g.AddEdge(graph.NodeID(base+u), graph.NodeID(base+v))
		}
	}
	g.Freeze()
	return g
}

// Query builds a random GTPQ over the label alphabet: a random tree
// with mixed AD/PC edges, random backbone/predicate kinds, random
// structural predicates (possibly with ∨ and ¬ when allowLogic is
// set), and a random non-empty output set. The query is valid by
// construction.
func Query(r *rand.Rand, size int, labels []string, allowPC, allowLogic bool) *core.Query {
	q := core.NewQuery()
	root := q.AddRoot("n0", core.Label(labels[r.Intn(len(labels))]))
	backbones := []int{root}
	for i := 1; i < size; i++ {
		kind := core.Backbone
		if r.Intn(2) == 0 {
			kind = core.Predicate
		}
		edge := core.AD
		if allowPC && r.Intn(3) == 0 {
			edge = core.PC
		}
		// Predicate nodes may hang anywhere; backbone only under backbone.
		var parent int
		if kind == core.Backbone {
			parent = backbones[r.Intn(len(backbones))]
		} else {
			parent = r.Intn(i) // any earlier node
		}
		id := q.AddNode("n", kind, parent, edge, core.Label(labels[r.Intn(len(labels))]))
		if kind == core.Backbone {
			backbones = append(backbones, id)
		}
	}
	// Structural predicates over predicate children.
	for _, n := range q.Nodes {
		var preds []int
		for _, c := range n.Children {
			if q.Nodes[c].Kind == core.Predicate {
				preds = append(preds, c)
			}
		}
		if len(preds) == 0 {
			continue
		}
		if !allowLogic {
			vars := make([]*logic.Formula, len(preds))
			for i, p := range preds {
				vars[i] = logic.Var(p)
			}
			q.SetStruct(n.ID, logic.And(vars...))
			continue
		}
		parts := make([]*logic.Formula, len(preds))
		for i, p := range preds {
			v := logic.Var(p)
			if r.Intn(4) == 0 {
				v = logic.Not(v)
			}
			parts[i] = v
		}
		var f *logic.Formula
		switch r.Intn(3) {
		case 0:
			f = logic.And(parts...)
		case 1:
			f = logic.Or(parts...)
		default:
			if len(parts) > 1 {
				f = logic.Or(logic.And(parts[:len(parts)/2+1]...), logic.And(parts[len(parts)/2:]...))
			} else {
				f = parts[0]
			}
		}
		q.SetStruct(n.ID, f)
	}
	// Output set: random non-empty subset of backbone nodes.
	for _, b := range backbones {
		if r.Intn(2) == 0 {
			q.SetOutput(b)
		}
	}
	if len(q.Outputs()) == 0 {
		q.SetOutput(backbones[r.Intn(len(backbones))])
	}
	return q
}

// InterleavedHub builds trees weakly-connected copies of a hub r with
// fan a-children, each with one c-child, and fan b-children, plus the
// query for every (a, b, c) below r. Within one copy the hub prunes to
// one candidate, so the outputs split into the components {x, z} and
// {y}, whose output positions (x, y, z) interleave: no odometer order
// over the two components is canonical. Each copy has fan² rows.
func InterleavedHub(trees, fan int) (*graph.Graph, *core.Query) {
	g := graph.New(trees*(1+3*fan), trees*3*fan)
	for t := 0; t < trees; t++ {
		hub := g.AddNode("r", nil)
		for i := 0; i < fan; i++ {
			a := g.AddNode("a", nil)
			g.AddEdge(hub, a)
			g.AddEdge(a, g.AddNode("c", nil))
			g.AddEdge(hub, g.AddNode("b", nil))
		}
	}
	q := core.NewQuery()
	r := q.AddRoot("r", core.Label("r"))
	x := q.AddNode("x", core.Backbone, r, core.AD, core.Label("a"))
	q.SetOutput(x)
	q.SetOutput(q.AddNode("y", core.Backbone, r, core.AD, core.Label("b")))
	q.SetOutput(q.AddNode("z", core.Backbone, x, core.AD, core.Label("c")))
	return g, q
}

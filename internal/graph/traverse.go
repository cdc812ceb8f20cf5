package graph

// Traversal helpers shared by generators, baselines and tests.

// ReachableFrom returns the set of nodes strictly reachable from v
// (excluding v unless v lies on a cycle). Used only by tests and the
// naive oracle on small graphs.
func ReachableFrom(g *Graph, v NodeID) map[NodeID]bool {
	out := make(map[NodeID]bool)
	var stack []NodeID
	push := func(w NodeID) {
		if !out[w] {
			out[w] = true
			stack = append(stack, w)
		}
	}
	for _, w := range g.Out(v) {
		push(w)
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Out(x) {
			push(w)
		}
	}
	return out
}

// Roots returns the nodes with no incoming tree edge — the roots of the
// document forest underlying an XML-derived graph.
func Roots(g *Graph) []NodeID {
	var roots []NodeID
	for v := 0; v < g.N(); v++ {
		if g.TreeParent(NodeID(v)) == -1 {
			roots = append(roots, NodeID(v))
		}
	}
	return roots
}

// DocOrder assigns preorder (start), postorder-derived end, and level
// positions to every node of the document forest induced by tree edges.
// It is the region (interval) encoding of Bruno et al. used by the tree
// baselines: u is an ancestor of v iff Start[u] < Start[v] && End[v] <=
// End[u].
type DocOrder struct {
	Start []int32
	End   []int32
	Level []int32
}

// NewDocOrder computes the document order of g's tree-edge forest.
func NewDocOrder(g *Graph) *DocOrder {
	n := g.N()
	d := &DocOrder{
		Start: make([]int32, n),
		End:   make([]int32, n),
		Level: make([]int32, n),
	}
	for i := range d.Start {
		d.Start[i] = -1
	}
	var counter int32
	type frame struct {
		v     NodeID
		ci    int
		kids  []NodeID
		level int32
	}
	var kidsBuf []NodeID
	for _, root := range Roots(g) {
		if d.Start[root] != -1 {
			continue
		}
		kidsBuf = g.TreeChildren(root, kidsBuf[:0])
		stack := []frame{{v: root, kids: append([]NodeID(nil), kidsBuf...)}}
		d.Start[root] = counter
		counter++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ci < len(f.kids) {
				w := f.kids[f.ci]
				f.ci++
				if d.Start[w] != -1 {
					continue // defensive: malformed forest
				}
				d.Start[w] = counter
				counter++
				d.Level[w] = f.level + 1
				kidsBuf = g.TreeChildren(w, kidsBuf[:0])
				stack = append(stack, frame{v: w, kids: append([]NodeID(nil), kidsBuf...), level: f.level + 1})
				continue
			}
			d.End[f.v] = counter
			counter++
			stack = stack[:len(stack)-1]
		}
	}
	return d
}

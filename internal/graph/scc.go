package graph

import "slices"

// Tarjan strongly-connected-component condensation, iterative so deep
// graphs do not overflow the goroutine stack. Every reachability index
// operates on the condensation DAG; strict-path semantics for cyclic
// graphs come from the Nontrivial test.

// SCCMap is what a built reachability index keeps of a condensation:
// each node's SCC, and per SCC one bit for whether it contains a cycle.
// That costs 4 B per node plus K/8 bytes; the members and DAG rows are
// needed only while an index is built or decoded.
type SCCMap struct {
	// Comp maps each original node to its SCC id. Tarjan numbers SCCs in
	// reverse topological order — every DAG edge leads from a larger id
	// to a smaller one — so NumSCC()-1, ..., 0 is a topological order
	// (sources first) and nothing else needs storing for it.
	Comp []int32

	cyclic bitset
}

// Nontrivial reports whether SCC s contains a cycle: more than one
// member, or a single member with a self-loop. A node strictly reaches
// itself exactly when its SCC is nontrivial.
func (m *SCCMap) Nontrivial(s int32) bool { return m.cyclic.get(s) }

// Renumber returns a copy of m in which SCC s is called to[s]; to must
// be a permutation of the SCC ids. The copy shares nothing with m.
func (m *SCCMap) Renumber(to []int32) SCCMap {
	r := SCCMap{Comp: make([]int32, len(m.Comp)), cyclic: newBitset(len(to))}
	for v, s := range m.Comp {
		r.Comp[v] = to[s]
	}
	for s, t := range to {
		if m.cyclic.get(int32(s)) {
			r.cyclic.set(t)
		}
	}
	return r
}

// Condensation is the SCC quotient of a Graph, stored like the graph
// itself: members and DAG adjacency are offset + payload arrays.
type Condensation struct {
	SCCMap

	members csr[NodeID]
	out, in csr[int32]
}

// NumSCC returns the number of strongly connected components.
func (c *Condensation) NumSCC() int { return c.members.rows() }

// Members returns the original nodes of SCC s; callers must not modify
// the slice.
func (c *Condensation) Members(s int32) []NodeID { return c.members.row(s) }

// Out returns the DAG successors of SCC s, each once, in order of first
// occurrence over s's members' edges; callers must not modify the slice.
func (c *Condensation) Out(s int32) []int32 { return c.out.row(s) }

// In returns the DAG predecessors of SCC s, each once; callers must not
// modify the slice.
func (c *Condensation) In(s int32) []int32 { return c.in.row(s) }

// Components returns each node's SCC id as Condense numbers it, without
// building the condensation's DAG rows or cycle bits.
func Components(g *Graph) []int32 { return components(g).Comp }

// components runs Tarjan's algorithm over g: the condensation it
// returns has Comp and the members set, nothing else.
func components(g *Graph) *Condensation {
	g.Freeze()
	n := g.N()
	c := &Condensation{SCCMap: SCCMap{Comp: make([]int32, n)}}
	c.members = csr[NodeID]{off: []int32{0}, val: make([]NodeID, 0, n)}
	for i := range c.Comp {
		c.Comp[i] = -1
	}

	index := make([]int32, n)
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []NodeID
	var next int32

	// Iterative Tarjan: frame keeps the node and the position within its
	// out list.
	type frame struct {
		v  NodeID
		ei int
	}
	var frames []frame
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		frames = append(frames[:0], frame{v: NodeID(start)})
		index[start] = next
		lowlink[start] = next
		next++
		stack = append(stack, NodeID(start))
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			advanced := false
			for out := g.Out(v); f.ei < len(out); {
				w := out[f.ei]
				f.ei++
				if index[w] == -1 {
					index[w] = next
					lowlink[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v finished.
			if lowlink[v] == index[v] {
				id := int32(c.members.rows())
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					c.Comp[w] = id
					c.members.val = append(c.members.val, w)
					if w == v {
						break
					}
				}
				c.members.off = append(c.members.off, int32(len(c.members.val)))
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if lowlink[v] < lowlink[p] {
					lowlink[p] = lowlink[v]
				}
			}
		}
	}
	return c
}

// Condense computes the SCC condensation of g.
func Condense(g *Graph) *Condensation {
	c := components(g)
	n := g.N()

	// Condensation edges and cycles. The edges are listed in node-id
	// order, bucketed per source and per target SCC, and each row keeps
	// the first occurrence of every neighbor: the chain cover's matching
	// depends on this order.
	k := c.members.rows()
	c.members.off = slices.Clone(c.members.off) // drop the append slack
	c.cyclic = newBitset(k)
	type dagEdge struct{ from, to int32 }
	es := make([]dagEdge, 0, g.M())
	for v := 0; v < n; v++ {
		sv := c.Comp[v]
		for _, w := range g.Out(NodeID(v)) {
			if sw := c.Comp[w]; sv != sw {
				es = append(es, dagEdge{sv, sw})
			} else {
				c.cyclic.set(sv) // an edge inside an SCC closes a cycle
			}
		}
	}
	from := func(e dagEdge) int32 { return e.from }
	to := func(e dagEdge) int32 { return e.to }
	c.out = dedupRows(bucket(k, es, from, to))
	c.in = dedupRows(bucket(k, es, to, from))
	return c
}

// dedupRows drops, in place, every repeated value within a row of c,
// keeping first occurrences in order.
func dedupRows(c csr[int32]) csr[int32] {
	seenIn := make([]int32, c.rows()) // row that last held the value, plus one
	n := int32(0)
	for r := int32(0); r < int32(c.rows()); r++ {
		lo, hi := c.off[r], c.off[r+1]
		c.off[r] = n
		for _, x := range c.val[lo:hi] {
			if seenIn[x] != r+1 {
				seenIn[x] = r + 1
				c.val[n] = x
				n++
			}
		}
	}
	c.off[c.rows()] = n
	if int(n) < len(c.val) {
		c.val = slices.Clone(c.val[:n])
	}
	return c
}

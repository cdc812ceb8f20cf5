package shard

import (
	"fmt"
	"sort"

	"gtpq/internal/graph"
)

// Mode selects the partitioning strategy.
type Mode string

const (
	// ModeAuto picks ModeWCC when the graph has at least K weakly
	// connected components, ModeHash otherwise.
	ModeAuto Mode = "auto"
	// ModeWCC assigns whole weakly-connected components to shards.
	ModeWCC Mode = "wcc"
	// ModeHash hashes vertices to owner shards and replicates each
	// owned vertex's reachability closure into the shard.
	ModeHash Mode = "hash"
)

// valid reports whether m names a concrete (resolved) mode.
func (m Mode) valid() bool { return m == ModeWCC || m == ModeHash }

// Plan is a computed partition of one graph: the vertex set of each
// shard, in ascending global id order. Parts always has exactly K
// entries; entries may be empty when the graph is smaller than K.
type Plan struct {
	// Mode is the resolved mode (never ModeAuto).
	Mode Mode
	// Parts[i] lists shard i's global vertex ids, ascending. Under
	// ModeWCC the parts are disjoint; under ModeHash a vertex may
	// appear in several parts (replication).
	Parts [][]graph.NodeID
	// Replicated counts vertex copies beyond the first:
	// sum(len(Parts)) - N. Zero under ModeWCC.
	Replicated int
	// Components is the graph's weakly-connected component count
	// (computed once during planning; callers report it for free).
	Components int
}

// Partition computes a K-way partition of g under the given mode. The
// graph is frozen as a side effect.
func Partition(g *graph.Graph, k int, mode Mode) (*Plan, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", k)
	}
	g.Freeze()
	if mode != ModeAuto && !mode.valid() {
		return nil, fmt.Errorf("shard: unknown mode %q (auto, wcc, hash)", mode)
	}
	comps := WeakComponents(g)
	var plan *Plan
	switch {
	case mode == ModeWCC, mode == ModeAuto && len(comps) >= k:
		plan = planWCC(g, k, comps)
	default:
		plan = planHash(g, k)
	}
	plan.Components = len(comps)
	return plan, nil
}

// WeakComponents returns the weakly-connected components of g, each as
// an ascending list of node ids, ordered by their smallest member.
func WeakComponents(g *graph.Graph) [][]graph.NodeID {
	n := g.N()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra // smaller root wins: stable component ids
		}
	}
	for v := 0; v < n; v++ {
		for _, w := range g.Out(graph.NodeID(v)) {
			union(int32(v), int32(w))
		}
	}
	byRoot := map[int32][]graph.NodeID{}
	var roots []int32
	for v := 0; v < n; v++ {
		r := find(int32(v))
		if _, seen := byRoot[r]; !seen {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], graph.NodeID(v)) // ascending by construction
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	comps := make([][]graph.NodeID, len(roots))
	for i, r := range roots {
		comps[i] = byRoot[r]
	}
	return comps
}

// planWCC bin-packs whole components onto k shards: largest component
// first, always onto the currently lightest shard (ties to the lowest
// shard index), so shard sizes stay balanced without cutting any edge.
func planWCC(g *graph.Graph, k int, comps [][]graph.NodeID) *Plan {
	order := make([]int, len(comps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(comps[order[a]]) > len(comps[order[b]])
	})
	parts := make([][]graph.NodeID, k)
	load := make([]int, k)
	for _, ci := range order {
		best := 0
		for s := 1; s < k; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		parts[best] = append(parts[best], comps[ci]...)
		load[best] += len(comps[ci])
	}
	for s := range parts {
		sort.Slice(parts[s], func(i, j int) bool { return parts[s][i] < parts[s][j] })
	}
	return &Plan{Mode: ModeWCC, Parts: parts}
}

// planHash assigns each vertex an owner shard by hash and closes every
// shard's vertex set under reachability, replicating whatever the
// owned vertices reach.
func planHash(g *graph.Graph, k int) *Plan {
	n := g.N()
	parts := make([][]graph.NodeID, k)
	replicated := -n // counting below adds every copy once
	inShard := make([]bool, n)
	var queue []graph.NodeID
	for s := 0; s < k; s++ {
		for i := range inShard {
			inShard[i] = false
		}
		queue = queue[:0]
		for v := 0; v < n; v++ {
			if Owner(graph.NodeID(v), k) == s {
				inShard[v] = true
				queue = append(queue, graph.NodeID(v))
			}
		}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Out(v) {
				if !inShard[w] {
					inShard[w] = true
					queue = append(queue, w)
				}
			}
		}
		var part []graph.NodeID
		for v := 0; v < n; v++ {
			if inShard[v] {
				part = append(part, graph.NodeID(v))
			}
		}
		parts[s] = part
		replicated += len(part)
	}
	if replicated < 0 {
		replicated = 0 // n == 0
	}
	return &Plan{Mode: ModeHash, Parts: parts, Replicated: replicated}
}

// Owner is the hash-mode owner shard of vertex v among k shards
// (FNV-1a over the id bytes; stable across runs and platforms, which
// the manifest format relies on).
func Owner(v graph.NodeID, k int) int {
	h := uint32(2166136261)
	x := uint32(v)
	for i := 0; i < 4; i++ {
		h ^= (x >> (8 * i)) & 0xff
		h *= 16777619
	}
	return int(h % uint32(k))
}

// Subgraph materializes the induced subgraph of g on verts (ascending
// global ids), preserving labels, attributes, and tree/cross edge
// kinds. Local id i corresponds to verts[i]; edges to vertices outside
// verts are dropped (Partition only produces reachability-closed parts,
// so nothing is dropped for its plans). The subgraph is frozen.
func Subgraph(g *graph.Graph, verts []graph.NodeID) *graph.Graph {
	local := make(map[graph.NodeID]graph.NodeID, len(verts))
	sg := graph.New(len(verts), 0)
	for _, gv := range verts {
		local[gv] = sg.AddNode(g.Label(gv), g.AttrMap(gv))
	}
	for _, gv := range verts {
		lu := local[gv]
		for _, w := range g.Out(gv) {
			lw, ok := local[w]
			if !ok {
				continue
			}
			if g.EdgeKindOf(gv, w) == graph.CrossEdge {
				sg.AddCrossEdge(lu, lw)
			} else {
				sg.AddEdge(lu, lw)
			}
		}
	}
	sg.Freeze()
	return sg
}

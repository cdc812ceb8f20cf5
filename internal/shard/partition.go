package shard

import (
	"fmt"
	"sort"

	"gtpq/internal/graph"
)

// Mode names a partitioning strategy. ModeWCC is the only one.
type Mode string

// ModeWCC assigns whole weakly-connected components to shards.
const ModeWCC Mode = "wcc"

// Plan is a computed partition of one graph: the vertex set of each
// shard, in ascending global id order. Parts always has exactly K
// entries and they are disjoint; entries are empty when the graph has
// fewer weakly-connected components than K.
type Plan struct {
	// Parts[i] lists shard i's global vertex ids, ascending.
	Parts [][]graph.NodeID
	// Components is the graph's weakly-connected component count
	// (computed once during planning; callers report it for free).
	Components int
}

// Partition bin-packs g's weakly-connected components onto k shards.
// mode must be ModeWCC. The graph is frozen as a side effect.
func Partition(g *graph.Graph, k int, mode Mode) (*Plan, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", k)
	}
	if mode != ModeWCC {
		return nil, fmt.Errorf("shard: unknown mode %q (only %q)", mode, ModeWCC)
	}
	g.Freeze()
	comps := WeakComponents(g)
	plan := planWCC(k, comps)
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
func planWCC(k int, comps [][]graph.NodeID) *Plan {
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
	return &Plan{Parts: parts}
}

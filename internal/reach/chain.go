package reach

import "gtpq/internal/graph"

// Minimum path cover of the condensation DAG via Hopcroft-Karp bipartite
// matching. The resulting vertex-disjoint paths are the chain cover the
// 3-hop index builds on: consecutive chain positions are real DAG edges,
// so reachability along a chain is the sequence-number order the paper
// relies on (v ≤c v' iff v.sid ≤ v'.sid, equivalently v.pos ≤ v'.pos).

const hkInf = int32(1) << 30

// minPathCover computes a minimum path cover of the condensation DAG.
// It returns next[s] = the successor of s on its path, or -1 when s
// ends a path.
func minPathCover(c *graph.Condensation) []int32 {
	n := c.NumSCC()
	matchL := make([]int32, n) // left u matched to right matchL[u]
	matchR := make([]int32, n)
	for i := range matchL {
		matchL[i] = -1
		matchR[i] = -1
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)

	bfs := func() bool {
		queue = queue[:0]
		for u := 0; u < n; u++ {
			if matchL[u] == -1 {
				dist[u] = 0
				queue = append(queue, int32(u))
			} else {
				dist[u] = hkInf
			}
		}
		found := false
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			for _, w := range c.Out(u) {
				mu := matchR[w]
				if mu == -1 {
					found = true
				} else if dist[mu] == hkInf {
					dist[mu] = dist[u] + 1
					queue = append(queue, mu)
				}
			}
		}
		return found
	}

	var dfs func(u int32) bool
	dfs = func(u int32) bool {
		for _, w := range c.Out(u) {
			mu := matchR[w]
			if mu == -1 || (dist[mu] == dist[u]+1 && dfs(mu)) {
				matchL[u] = w
				matchR[w] = u
				return true
			}
		}
		dist[u] = hkInf
		return false
	}

	for bfs() {
		for u := int32(0); u < int32(n); u++ {
			if matchL[u] == -1 {
				dfs(u)
			}
		}
	}
	return matchL
}

// chainDecompose partitions the DAG nodes into chains following a
// minimum path cover and numbers them by position: the chains are laid
// out one after another, so chain c is the positions [chainOff[c],
// chainOff[c+1]), in path order. It also returns each position's chain
// id and each SCC's position.
func chainDecompose(c *graph.Condensation) (chainOff, chainAt, posOf []int32) {
	n := c.NumSCC()
	next := minPathCover(c)
	isSucc := make([]bool, n)
	heads := n
	for u := 0; u < n; u++ {
		if next[u] != -1 {
			isSucc[next[u]] = true
			heads--
		}
	}
	chainOff = make([]int32, 1, heads+1)
	chainAt = make([]int32, 0, n)
	posOf = make([]int32, n)
	for u := 0; u < n; u++ {
		if isSucc[u] {
			continue // not a path head
		}
		cid := int32(len(chainOff) - 1)
		for v := int32(u); v != -1; v = next[v] {
			posOf[v] = int32(len(chainAt))
			chainAt = append(chainAt, cid)
		}
		chainOff = append(chainOff, int32(len(chainAt)))
	}
	return chainOff, chainAt, posOf
}

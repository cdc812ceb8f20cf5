package reach

import (
	"runtime"
	"sync"

	"gtpq/internal/graph"
)

// Helpers for level-parallel index construction. Both topological
// sweeps used by the builders (3-hop Lin/Lout, TC rows) have the same
// dependency shape: a node needs only nodes it points at (or is pointed
// at by). Grouping the condensation by longest-path level makes every
// level internally independent, so levels run serially and the nodes of
// a level run sharded across goroutines.

// eachSCC calls f for every SCC of c in dependency order. SCC ids are
// reverse topological (DAG edges lead to smaller ids), so a sweep whose
// nodes need their successors (down) runs in ascending id order and one
// whose nodes need their predecessors in descending order.
func eachSCC(c *graph.Condensation, down bool, f func(s int32)) {
	n := int32(c.NumSCC())
	for i := int32(0); i < n; i++ {
		if down {
			f(i)
		} else {
			f(n - 1 - i)
		}
	}
}

// levelize buckets the SCCs of c by longest-path distance measured
// along their dependencies (successors when down, else predecessors):
// level(s) = 1 + max over deps (0 without any). Buckets are returned in
// dependency order: every node's deps live in strictly earlier buckets.
func levelize(c *graph.Condensation, down bool) [][]int32 {
	dep := c.Out
	if !down {
		dep = c.In
	}
	level := make([]int32, c.NumSCC())
	max := int32(0)
	eachSCC(c, down, func(s int32) {
		l := int32(0)
		for _, w := range dep(s) {
			if level[w]+1 > l {
				l = level[w] + 1
			}
		}
		level[s] = l
		if l > max {
			max = l
		}
	})
	buckets := make([][]int32, max+1)
	eachSCC(c, down, func(s int32) {
		buckets[level[s]] = append(buckets[level[s]], s)
	})
	return buckets
}

// parallelFor covers [0, n) with calls f(lo, hi), sharded across
// GOMAXPROCS goroutines. Small batches run inline — goroutine startup
// dominates otherwise.
func parallelFor(n int, f func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	const minPerWorker = 16
	if workers > n/minPerWorker {
		workers = n / minPerWorker
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

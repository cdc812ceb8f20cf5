package reach

import (
	"sync"
	"sync/atomic"

	"gtpq/internal/graph"
)

// Helpers for level-parallel index construction. The one topological
// sweep of each builder (3-hop Lout, TC rows) has the same dependency
// shape: an SCC needs only the SCCs it points at. Grouping the
// condensation by longest-path level makes every level internally
// independent, so levels run serially and the SCCs of a level run
// spread over goroutines.

// levelize buckets the SCCs of c by longest-path distance along their
// DAG successors: level(s) = 1 + max over successors (0 without any).
// Buckets are returned in dependency order: every SCC's successors live
// in strictly earlier buckets. SCC ids are reverse topological (DAG
// edges lead to smaller ids), so one pass in ascending id order sees
// every successor's level first, and each bucket lists its SCCs in
// ascending id order.
func levelize(c *graph.Condensation) [][]int32 {
	n := int32(c.NumSCC())
	level := make([]int32, n)
	top := int32(0)
	for s := int32(0); s < n; s++ {
		l := int32(0)
		for _, w := range c.Out(s) {
			if level[w]+1 > l {
				l = level[w] + 1
			}
		}
		level[s] = l
		if l > top {
			top = l
		}
	}
	buckets := make([][]int32, top+1)
	for s := int32(0); s < n; s++ {
		buckets[level[s]] = append(buckets[level[s]], s)
	}
	return buckets
}

// spread runs f(0), ..., f(workers-1), each on its own goroutine but
// f(0), which runs on the caller's, and returns when all have.
func spread(workers int, f func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	f(0)
	wg.Wait()
}

// parallelFor covers [0, n) with calls f(w, lo, hi) from at most procs
// goroutines; w < procs names the calling goroutine, so f may keep
// per-worker state in a slice indexed by it. The range is handed out in
// grains of at most maxGrain items on demand, so a worker that drew
// cheap items takes more: the items of one SCC level differ in cost by
// orders of magnitude, and a level of a few items can hold most of the
// work (the top of an XMark site folds nearly every chain per item).
func parallelFor(procs, n int, f func(w, lo, hi int)) {
	const maxGrain = 16
	workers := min(procs, n)
	if workers <= 1 {
		f(0, 0, n)
		return
	}
	grain := max(1, min(maxGrain, n/(8*workers)))
	var next atomic.Int64
	spread(workers, func(w int) {
		for {
			hi := int(next.Add(int64(grain)))
			lo := hi - grain
			if lo >= n {
				return
			}
			f(w, lo, min(hi, n))
		}
	})
}

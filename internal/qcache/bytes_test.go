package qcache

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/graph"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBytesCoverLiveHeap fills a cache that never evicts with answers
// of 5 to 3,000 rows of 1 to 3 columns, each built row by row as
// gtea.Collect builds one, and checks that the bytes the cache charges
// account for what it keeps alive: the live heap grows by at most
// 1.15 times Stats().Bytes, and by no less than Stats().Bytes / 1.15.
func TestBytesCoverLiveHeap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := New(1 << 30)
	before := liveHeap()
	for i := 0; i < 200; i++ {
		cols := 1 + r.Intn(3)
		ans := &core.Answer{Out: make([]int, cols)}
		row := make([]graph.NodeID, cols)
		for n := 5 + r.Intn(2996); n > 0; n-- {
			for j := range row {
				row[j] = graph.NodeID(r.Intn(1 << 20))
			}
			ans.Add(append([]graph.NodeID(nil), row...))
		}
		c.Put(Key{Dataset: "d", Generation: 1, Query: fmt.Sprintf("q%03d", i), Index: "threehop"}, ans)
	}
	grown := int64(liveHeap() - before)
	st := c.Stats()
	runtime.KeepAlive(c)
	if st.Evictions != 0 || st.Entries != 200 {
		t.Fatalf("stats %+v: want 200 entries and no eviction", st)
	}
	if ratio := float64(grown) / float64(st.Bytes); ratio > 1.15 || ratio < 1/1.15 {
		t.Fatalf("live heap grew by %d bytes, cache charges %d (%.2fx)", grown, st.Bytes, ratio)
	}
}

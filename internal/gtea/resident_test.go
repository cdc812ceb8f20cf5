package gtea

import (
	"runtime"
	"testing"

	"gtpq/internal/xmark"
)

// liveHeap returns the post-GC live heap, for before/after deltas. Two
// GC cycles, because sync.Pool contents survive the first one (as
// victim caches): a single collection would leave pool memory from
// earlier work in the first sample but not in the later one, skewing
// the delta negative by however much the pools held.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentBytesPerNode pins what a loaded dataset costs: the live
// heap held by an XMark site (~200k nodes, the benchmark's xmark_eval
// dataset) plus its 3-hop engine, per node. The flat offset + payload
// layout of graph, condensation and index measures ~186 B/node; the
// slice-of-slices layout it replaced measured ~450.
func TestResidentBytesPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 200k-node graph")
	}
	before := liveHeap()
	g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 2000, Seed: 7})
	e, err := NewWithOptions(g, Options{Index: "threehop"})
	if err != nil {
		t.Fatal(err)
	}
	perNode := float64(liveHeap()-before) / float64(g.N())
	runtime.KeepAlive(e)
	t.Logf("%d nodes, %d edges, %d index entries: %.1f B/node", g.N(), g.M(), e.IndexSize(), perNode)
	const bound = 215 // ~15% above the measured 186
	if perNode > bound {
		t.Errorf("graph + engine hold %.1f B/node live, want <= %d", perNode, bound)
	}
}

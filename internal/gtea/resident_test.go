package gtea

import (
	"runtime"
	"testing"

	"gtpq/internal/arxiv"
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

// TestResidentBytesPerNode pins what a loaded dataset costs, on the two
// dataset families:
//
//   - xmark: the live heap held by a 50,078-node XMark site (Scale 1,
//     2000 persons) plus its 3-hop engine, per node (~62 measured: the
//     attributes are one flat table, the index keeps only the node ->
//     SCC map of the condensation, an SCC is named by its chain
//     position, so no array translates between the two, and list
//     entries are gap-coded).
//   - arxiv: the live heap the 3-hop engine adds to the 9,562-node arXiv
//     graph, per index entry. The lists are nearly all of it there, so
//     this pins the gap-coded entry: one byte for nearly every entry
//     (~1.06 measured).
func TestResidentBytesPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 50k-node site and the full arXiv graph")
	}
	t.Run("xmark", func(t *testing.T) {
		before := liveHeap()
		g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 2000, Seed: 7})
		e, err := NewWithOptions(g, Options{Index: "threehop"})
		if err != nil {
			t.Fatal(err)
		}
		perNode := float64(liveHeap()-before) / float64(g.N())
		runtime.KeepAlive(e)
		t.Logf("%d nodes, %d edges, %d index entries: %.1f B/node", g.N(), g.M(), e.IndexSize(), perNode)
		const bound = 72 // ~15% above the measured 62.1
		if perNode > bound {
			t.Errorf("graph + engine hold %.1f B/node live, want <= %d", perNode, bound)
		}
	})
	t.Run("arxiv", func(t *testing.T) {
		g, _ := arxiv.Generate(arxiv.DefaultConfig())
		before := liveHeap()
		e, err := NewWithOptions(g, Options{Index: "threehop"})
		if err != nil {
			t.Fatal(err)
		}
		perEntry := float64(liveHeap()-before) / float64(e.IndexSize())
		runtime.KeepAlive(e)
		t.Logf("%d nodes, %d edges, %d index entries: %.2f B/entry", g.N(), g.M(), e.IndexSize(), perEntry)
		const bound = 1.2 // ~13% above the measured 1.06
		if perEntry > bound {
			t.Errorf("engine holds %.2f B per index entry live, want <= %.1f", perEntry, bound)
		}
	})
}

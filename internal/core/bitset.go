package core

import (
	"math/bits"

	"gtpq/internal/graph"
)

// Bitset is a dense membership set over NodeIDs, built for reuse: Reset
// re-zeros in place — touching only the words Add dirtied when the set
// was sparse — so a pooled Bitset costs no allocation in steady state
// and clearing costs O(members), not O(graph). It replaces the
// map[graph.NodeID]bool candidate sets on the evaluation hot path:
// membership is one word load instead of a hash probe, and
// re-populating one is bit stores instead of map churn.
//
// The zero value is an empty set over no nodes; Reset sizes it. Not
// safe for concurrent mutation (evaluation contexts are per-call).
type Bitset struct {
	// Invariant between calls: every word of the backing array beyond
	// the ones recorded in dirty is zero, so Reset can un-dirty just
	// those words instead of clearing the whole array.
	words []uint64
	dirty []graph.NodeID // members added since the last Reset
}

// Reset makes b the empty set over the id range [0, n), reusing the
// existing backing array when it is large enough.
func (b *Bitset) Reset(n int) {
	w := (n + 63) >> 6
	if cap(b.words) < w {
		b.words = make([]uint64, w)
		b.dirty = b.dirty[:0]
		return
	}
	full := b.words[:cap(b.words)]
	if len(b.dirty) < len(full)/8 {
		// Sparse: zero only the dirtied words (O(members)); a large
		// graph with a selective candidate set must not pay a memclr
		// proportional to the graph.
		for _, v := range b.dirty {
			full[v>>6] = 0
		}
	} else {
		clear(full)
	}
	b.dirty = b.dirty[:0]
	b.words = full[:w]
}

// Add inserts v. v must be within the range Reset sized.
func (b *Bitset) Add(v graph.NodeID) {
	b.words[v>>6] |= 1 << (uint(v) & 63)
	b.dirty = append(b.dirty, v)
}

// Has reports whether v is in the set. Ids beyond the sized range are
// absent rather than out of bounds.
func (b *Bitset) Has(v graph.NodeID) bool {
	w := int(v >> 6)
	return w < len(b.words) && b.words[w]&(1<<(uint(v)&63)) != 0
}

// Fill resets b over [0, n) and inserts every id in xs.
func (b *Bitset) Fill(n int, xs []graph.NodeID) {
	b.Reset(n)
	for _, x := range xs {
		b.Add(x)
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

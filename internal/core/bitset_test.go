package core

import (
	"math/rand"
	"testing"

	"gtpq/internal/graph"
)

func TestBitsetBasics(t *testing.T) {
	var b Bitset
	if b.Has(0) || b.Count() != 0 {
		t.Fatal("zero value not empty")
	}
	b.Reset(130)
	for _, v := range []graph.NodeID{0, 1, 63, 64, 127, 129} {
		b.Add(v)
	}
	for _, v := range []graph.NodeID{0, 1, 63, 64, 127, 129} {
		if !b.Has(v) {
			t.Fatalf("missing %d", v)
		}
	}
	for _, v := range []graph.NodeID{2, 62, 65, 128} {
		if b.Has(v) {
			t.Fatalf("phantom %d", v)
		}
	}
	if b.Has(1000) {
		t.Fatal("out-of-range id reported present")
	}
	if b.Count() != 6 {
		t.Fatalf("count = %d", b.Count())
	}
	// Reset must clear in place.
	b.Reset(130)
	if b.Count() != 0 || b.Has(64) {
		t.Fatal("reset did not clear")
	}
	// Shrinking reuse must not resurrect bits on re-grow.
	b.Add(120)
	b.Reset(10)
	b.Reset(130)
	if b.Has(120) {
		t.Fatal("stale bit survived shrink+grow reset")
	}
}

// TestBitsetMatchesMap cross-checks Fill/Has against the map semantics
// it replaced, reusing one Bitset across trials so the sparse-clear
// path (dirty-word tracking) and the memclr path both run and neither
// leaks bits between fills.
func TestBitsetMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var b Bitset
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(500)
		size := r.Intn(n)
		if trial%3 == 0 {
			size = r.Intn(4) // sparse fills exercise the dirty-word clear
		}
		xs := make([]graph.NodeID, size)
		m := map[graph.NodeID]bool{}
		for i := range xs {
			xs[i] = graph.NodeID(r.Intn(n))
			m[xs[i]] = true
		}
		b.Fill(n, xs)
		for v := 0; v < n; v++ {
			if b.Has(graph.NodeID(v)) != m[graph.NodeID(v)] {
				t.Fatalf("trial %d: Has(%d) = %v, map says %v", trial, v, b.Has(graph.NodeID(v)), m[graph.NodeID(v)])
			}
		}
		if b.Count() != len(m) {
			t.Fatalf("trial %d: count %d != %d", trial, b.Count(), len(m))
		}
	}
}

package delta

import (
	"testing"

	"gtpq/internal/graph"
)

// hashFixture is a small graph with everything Hash reads: repeated and
// distinct labels, attributes (which it must ignore), a duplicate edge,
// a self-loop, a pair joined by a tree and a cross edge, edges added out
// of id order, and an isolated node added after the edges.
func hashFixture() *graph.Graph {
	g := graph.New(0, 0)
	a := g.AddNode("site", nil)
	b := g.AddNode("person", graph.Attrs{"name": graph.StrV("ada")})
	c := g.AddNode("person", nil)
	d := g.AddNode("item", graph.Attrs{"price": graph.NumV(3)})
	g.AddEdge(a, d)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddCrossEdge(c, b)
	g.AddEdge(c, b)
	g.AddCrossEdge(d, c)
	g.AddEdge(b, d)
	g.AddEdge(b, d)
	g.AddCrossEdge(d, d)
	g.AddNode("", nil)
	return g
}

// TestHashGolden pins the base fingerprint: a delta log records the
// Hash of the graph it extends, so the value for a given graph must not
// change with the graph's in-memory layout or logs written by earlier
// builds stop replaying.
func TestHashGolden(t *testing.T) {
	const want = uint64(0xf3fb916c323c0e0d) // computed at the commit before the flat layout
	if got := Hash(hashFixture()); got != want {
		t.Fatalf("Hash = %#x, want %#x", got, want)
	}
}

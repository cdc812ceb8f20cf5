package delta

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"gtpq/internal/graph"
)

// ErrInvalidBatch wraps every Validate rejection, so servers can tell
// a caller error (4xx) from an internal failure applying a valid
// batch (5xx).
var ErrInvalidBatch = errors.New("delta: invalid batch")

// NodeAdd appends one vertex to the dataset.
type NodeAdd struct {
	Label string
	Attrs graph.Attrs
}

// EdgeAdd appends one directed edge. Endpoints may name base vertices,
// vertices added by earlier batches, or vertices added earlier in the
// same batch (ids are assigned in append order).
type EdgeAdd struct {
	From, To graph.NodeID
	Cross    bool
}

// Batch is one atomic set of mutations: all of it becomes visible in
// one generation, and the log appends it as one CRC-framed record.
type Batch struct {
	Nodes []NodeAdd
	Edges []EdgeAdd
}

// Ops returns the mutation count of the batch.
func (b *Batch) Ops() int { return len(b.Nodes) + len(b.Edges) }

// Empty reports whether the batch mutates nothing.
func (b *Batch) Empty() bool { return b.Ops() == 0 }

// Validate checks the batch against a dataset that currently holds n
// vertices: every edge endpoint must name an existing vertex or one of
// the batch's own additions.
func (b *Batch) Validate(n int) error {
	if b.Empty() {
		return fmt.Errorf("%w: mutates nothing", ErrInvalidBatch)
	}
	limit := graph.NodeID(n + len(b.Nodes))
	for i, e := range b.Edges {
		if e.From < 0 || e.To < 0 || e.From >= limit || e.To >= limit {
			return fmt.Errorf("%w: edge %d [%d -> %d] out of range (%d vertices after batch)",
				ErrInvalidBatch, i, e.From, e.To, limit)
		}
	}
	return nil
}

// Ops totals the mutations across batches.
func Ops(batches []Batch) int {
	total := 0
	for i := range batches {
		total += batches[i].Ops()
	}
	return total
}

// Extend materializes the logical graph: base's vertices and edges
// (ids preserved) followed by every batch's additions in append order.
// The result is a fresh frozen graph; base is not modified. Cost is
// O(N + M + delta) — deliberately paid per applied batch so engines
// stay immutable and hot-swappable, while the expensive part (the
// reachability index) is never rebuilt here.
func Extend(base *graph.Graph, batches []Batch) (*graph.Graph, error) {
	n, m := base.N(), base.M()
	extra := 0
	for i := range batches {
		extra += len(batches[i].Nodes)
	}
	g := graph.New(n+extra, m)
	for v := 0; v < n; v++ {
		nv := graph.NodeID(v)
		g.AddNode(base.Label(nv), base.AttrMap(nv))
	}
	for v := 0; v < n; v++ {
		nv := graph.NodeID(v)
		for _, w := range base.Out(nv) {
			if base.EdgeKindOf(nv, w) == graph.CrossEdge {
				g.AddCrossEdge(nv, w)
			} else {
				g.AddEdge(nv, w)
			}
		}
	}
	for bi := range batches {
		b := &batches[bi]
		if err := b.Validate(g.N()); err != nil {
			return nil, fmt.Errorf("batch %d: %w", bi, err)
		}
		for _, na := range b.Nodes {
			g.AddNode(na.Label, na.Attrs)
		}
		for _, e := range b.Edges {
			if e.Cross {
				g.AddCrossEdge(e.From, e.To)
			} else {
				g.AddEdge(e.From, e.To)
			}
		}
	}
	g.Freeze()
	return g, nil
}

// Hash fingerprints a graph's structure (vertex count, labels,
// adjacency with edge kinds) so a delta log can refuse to replay onto
// a base it was not written for. The graph is frozen as a side effect
// (adjacency order must be canonical). Attribute values are excluded:
// the fingerprint guards structural identity, which is what replay
// correctness depends on.
func Hash(g *graph.Graph) uint64 {
	g.Freeze()
	h := fnv.New64a()
	var buf [8]byte
	putU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	putU64(uint64(g.N()))
	putU64(uint64(g.M()))
	for v := 0; v < g.N(); v++ {
		nv := graph.NodeID(v)
		h.Write([]byte(g.Label(nv)))
		h.Write([]byte{0})
		for _, w := range g.Out(nv) {
			putU64(uint64(w))
			if g.EdgeKindOf(nv, w) == graph.CrossEdge {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// sortedAttrKeys returns v's attribute keys sorted (the log encoding
// must be deterministic).
func sortedAttrKeys(attrs graph.Attrs) []string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

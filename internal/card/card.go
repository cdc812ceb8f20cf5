// Package card maintains per-dataset cardinality summaries: a
// label-frequency histogram plus the node/edge totals, rebuilt by the
// catalog from the graph (or the shard label counts) on every load,
// applied delta and compaction. The summary feeds two consumers: the
// query planner's candidate estimates (which read the same numbers
// through reach.ContourIndex.LabelCount) and the server's cost-based
// admission, which must price a query before any evaluation work —
// including engine access — happens.
package card

import (
	"gtpq/internal/core"
	"gtpq/internal/graph"
)

// Stats is one dataset's cardinality summary at one catalog generation.
type Stats struct {
	Nodes      int
	Edges      int
	Labels     map[string]int
	Generation uint64
}

// FromGraph summarizes a frozen graph at the given generation.
func FromGraph(g *graph.Graph, generation uint64) *Stats {
	s := &Stats{Nodes: g.N(), Edges: g.M(), Labels: make(map[string]int), Generation: generation}
	for _, l := range g.Labels() {
		s.Labels[l] = len(g.ByLabel(l))
	}
	return s
}

// Counter is anything that can answer per-label counts (every
// reach.ContourIndex qualifies).
type Counter interface {
	LabelCount(label string) int
}

// FromCounts summarizes via per-label counts instead of a graph — the
// sharded path, where no flat graph is materialized.
func FromCounts(labels []string, c Counter, nodes, edges int, generation uint64) *Stats {
	s := &Stats{Nodes: nodes, Edges: edges, Labels: make(map[string]int), Generation: generation}
	for _, l := range labels {
		s.Labels[l] = c.LabelCount(l)
	}
	return s
}

// EstimateQuery prices a query against the summary: the sum over query
// nodes of the estimated candidate-set size (the label count for pure
// label predicates, the node count otherwise). This is exactly the
// work initCandidates + the first pruning sweep must touch at minimum,
// so it is a sound admission signal; it deliberately ignores
// reachability fan-out (estimating that needs the index itself).
func (s *Stats) EstimateQuery(q *core.Query) int64 {
	var total int64
	for u := range q.Nodes {
		if l, ok := q.Nodes[u].Attr.LabelOnly(); ok {
			total += int64(s.Labels[l])
		} else {
			total += int64(s.Nodes)
		}
	}
	return total
}

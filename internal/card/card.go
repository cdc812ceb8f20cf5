// Package card is the one cardinality estimator. A query node's
// candidate set is a lookup in the data graph's label index, so its
// size for a pure label predicate is known exactly to every served
// engine, flat, sharded or under a delta overlay, from that index;
// any other predicate is priced at the node count. Candidates is that
// rule, and every consumer calls it: the planner's per-node estimates,
// the server's admission pricing (Stats.EstimateQuery, surfaced as
// X-GTPQ-Cost / cost_estimate) and the standing-query restricted-vs-full
// gate. card keeps no counts of its own.
package card

import "gtpq/internal/core"

// Candidates estimates |mat(u)| for a query node with predicate p
// before any candidate scan: labelCount(l) for a pure label predicate,
// nodes otherwise (attribute predicates are not summarized).
func Candidates(p core.AttrPred, labelCount func(label string) int, nodes int) int {
	if l, ok := p.LabelOnly(); ok {
		return labelCount(l)
	}
	return nodes
}

// Stats prices queries against one served dataset generation: the
// engine's own LabelCount and logical node count.
type Stats struct {
	Nodes      int
	LabelCount func(label string) int
}

// EstimateQuery prices a query: the sum over query nodes of Candidates.
// This is exactly the work initCandidates + the first pruning sweep
// must touch at minimum, so it is a sound admission signal; it
// deliberately ignores reachability fan-out (estimating that needs the
// index itself).
func (s *Stats) EstimateQuery(q *core.Query) int64 {
	var total int64
	for u := range q.Nodes {
		total += int64(Candidates(q.Nodes[u].Attr, s.LabelCount, s.Nodes))
	}
	return total
}

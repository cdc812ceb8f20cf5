package gtea

import (
	"slices"

	"gtpq/internal/core"
	"gtpq/internal/graph"
)

// Group is one row of a grouped answer (the group operator of the §4.3
// Remark): the images of the output nodes outside the group node's
// subtree — including the group node itself — plus the set of matches of
// the output nodes dominated by it.
type Group struct {
	// Key holds the images of KeyOut (parallel).
	Key []graph.NodeID
	// Members holds the distinct tuples over MemberOut below this key.
	Members [][]graph.NodeID
}

// GroupedAnswer is the result of EvalGrouped.
type GroupedAnswer struct {
	// KeyOut lists the output nodes forming the group key (ascending),
	// always including the group node.
	KeyOut []int
	// MemberOut lists the output nodes nested inside each group
	// (ascending; the outputs strictly below the group node).
	MemberOut []int
	Groups    []Group
}

// EvalGrouped evaluates q and nests the matches of the output nodes
// below groupNode per combination of the remaining outputs — the group
// operator sketched in §4.3 ("the result returned for v is a tuple
// containing v and a special group element which is the set of matches
// of the subtree dominated by v"). groupNode must be an output node.
func (e *Engine) EvalGrouped(q *core.Query, groupNode int) *GroupedAnswer {
	if !q.Nodes[groupNode].Output {
		panic("gtea: group node must be an output node")
	}
	ans := e.Eval(q)

	below := make(map[int]bool)
	for _, d := range q.Descendants(groupNode) {
		below[d] = true
	}
	ga := &GroupedAnswer{}
	var keyPos, memPos []int
	for i, u := range ans.Out {
		if below[u] {
			ga.MemberOut = append(ga.MemberOut, u)
			memPos = append(memPos, i)
		} else {
			ga.KeyOut = append(ga.KeyOut, u)
			keyPos = append(keyPos, i)
		}
	}
	index := map[string]int{}
	for _, t := range ans.Tuples {
		key := make([]graph.NodeID, len(keyPos))
		for i, p := range keyPos {
			key[i] = t[p]
		}
		k := tupleKey(key)
		gi, ok := index[k]
		if !ok {
			gi = len(ga.Groups)
			index[k] = gi
			ga.Groups = append(ga.Groups, Group{Key: key})
		}
		member := make([]graph.NodeID, len(memPos))
		for i, p := range memPos {
			member[i] = t[p]
		}
		ga.Groups[gi].Members = append(ga.Groups[gi].Members, member)
	}
	// Deduplicate members (distinct sub-tuples) and order output
	// deterministically.
	for gi := range ga.Groups {
		ms := ga.Groups[gi].Members
		slices.SortFunc(ms, core.CompareTuples)
		ga.Groups[gi].Members = slices.CompactFunc(ms, func(a, b []graph.NodeID) bool {
			return core.CompareTuples(a, b) == 0
		})
	}
	slices.SortFunc(ga.Groups, func(a, b Group) int {
		return core.CompareTuples(a.Key, b.Key)
	})
	return ga
}

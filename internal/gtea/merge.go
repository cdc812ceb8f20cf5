package gtea

import (
	"gtpq/internal/core"
	"gtpq/internal/graph"
)

// CombineComponents assembles a final answer from per-component partial
// result sets by cross-component Cartesian product — the §4.3 step that
// combines the independent components of the shrunk prime subtree.
//
// perComp[i] holds the distinct partial tuples of component i, parallel
// to compOuts[i] (the output query nodes that component covers).
// fixed maps output nodes whose image is the same in every tuple (the
// shrunk-away singletons) to that image; an image of -1 marks an output
// with no surviving candidate, which empties the whole answer. tick,
// when non-nil, is polled during emission and aborts it by returning
// true (the caller's cancellation hook). The answer is canonicalized
// (sorted, deduplicated) before returning.
func CombineComponents(ans *core.Answer, fixed map[int]graph.NodeID, perComp [][][]graph.NodeID, compOuts [][]int, tick func() bool) {
	outPos := make(map[int]int, len(ans.Out))
	for i, u := range ans.Out {
		outPos[u] = i
	}
	for _, v := range fixed {
		if v == -1 {
			ans.Canonicalize()
			return // some output has no candidate: empty answer
		}
	}
	tuple := make([]graph.NodeID, len(ans.Out))
	for u, v := range fixed {
		tuple[outPos[u]] = v
	}
	var emit func(ci int)
	emit = func(ci int) {
		if tick != nil && tick() {
			return
		}
		if ci == len(perComp) {
			ans.Add(append([]graph.NodeID(nil), tuple...))
			return
		}
		for _, t := range perComp[ci] {
			for i, u := range compOuts[ci] {
				tuple[outPos[u]] = t[i]
			}
			emit(ci + 1)
		}
	}
	emit(0)
	ans.Canonicalize()
}

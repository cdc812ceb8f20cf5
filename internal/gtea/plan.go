package gtea

import (
	"fmt"
	"strings"

	"gtpq/internal/card"
	"gtpq/internal/core"
	"gtpq/internal/delta"
	"gtpq/internal/reach"
)

// The planner. Downward pruning (Procedure 6) visits the query nodes
// in the paper's post-order with the planner on or off: pruning a node
// reads only its own initial candidates and its children's final sets,
// so every children-before-parents order yields the same sets, kernel
// choices and counts. What the planner chooses is the kernel, by one
// fixed rule: pruning reads bitset contours (prune.go's connected: every
// node strictly connected to a candidate set, found by one search of
// the graph) in place of the index's merged contours. Downward, every
// internal node fills one bitset contour per variable of its fext,
// keeps the candidates whose membership in those sets satisfies fext
// (∧, ∨ and ¬ alike: a Boolean combination of one-attribute semijoins
// is set algebra over one domain), and records KernelMultiway. Upward,
// every AD edge of the prime subtree probes the parent's bitset
// contour. A set test bounds the work by the sets' sizes where the
// paper's per-candidate contour probes cost candidates × edges.
// The one exception is an index that is the transitive closure, flat
// or under a delta overlay (closureIndex): there a probe is a
// word-parallel row intersection with no graph walk, cheaper than the
// search, and the paper kernel stays.
//
// Estimates are card.Candidates over the evaluation graph's exact
// label counts (its label index; for a delta overlay that graph holds
// the delta vertices too); non-label predicates fall back to the node
// count. The estimated vs. actual cardinalities are recorded in
// Stats.Plan so misestimates are observable.
// Options.NoPlan restores the paper's behavior exactly.

// Kernel names recorded in PlanNode.
const (
	KernelPaper    = "paper"
	KernelMultiway = "multiway"
)

// PlanNode is the planner's record for one query node.
type PlanNode struct {
	// Node is the query node id, Name its query name.
	Node int    `json:"node"`
	Name string `json:"name,omitempty"`
	// Kernel is the downward pruning kernel the node ran ("paper" or
	// "multiway"; leaves and upward-only work report "paper").
	Kernel string `json:"kernel"`
	// EstCands is the planner's pre-evaluation candidate estimate,
	// InitCands the actual initial candidate count, FinalCands the
	// count surviving both pruning rounds.
	EstCands   int `json:"est"`
	InitCands  int `json:"init"`
	FinalCands int `json:"final"`
}

// PlanInfo is the planner output recorded in Stats.Plan.
type PlanInfo struct {
	// Nodes is indexed by query node id.
	Nodes []PlanNode `json:"nodes"`
}

// String renders a compact one-line summary (per-node kernel and
// est/init/final counts), for logs and debug output.
func (p *PlanInfo) String() string {
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%s(est=%d init=%d final=%d)", n.Node, n.Kernel, n.EstCands, n.InitCands, n.FinalCands)
	}
	return b.String()
}

// planQuery starts the PlanInfo, with every node's estimate, before
// candidates are materialized; with the planner off there is none.
func (ec *evalContext) planQuery(q *core.Query) {
	ec.plan = nil
	if ec.opt.NoPlan {
		return
	}
	ec.plan = &PlanInfo{Nodes: make([]PlanNode, len(q.Nodes))}
	for u, n := range q.Nodes {
		est := card.Candidates(n.Attr, func(l string) int { return len(ec.g.ByLabel(l)) }, ec.g.N())
		ec.plan.Nodes[u] = PlanNode{Node: u, Name: n.Name, Kernel: KernelPaper, EstCands: est}
	}
}

// finishPlan records the surviving candidate counts.
func (ec *evalContext) finishPlan(q *core.Query) {
	if ec.plan == nil {
		return
	}
	for u := range q.Nodes {
		ec.plan.Nodes[u].FinalCands = len(ec.mat[u])
	}
	ec.stat.Plan = ec.plan
}

// closureIndex reports whether h is the transitive closure, directly or
// through a delta overlay.
func closureIndex(h reach.ContourIndex) bool {
	return strings.TrimPrefix(h.Kind(), delta.KindPrefix) == "tc"
}

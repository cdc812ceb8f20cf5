package gtea

import (
	"fmt"
	"strings"

	"gtpq/internal/card"
	"gtpq/internal/core"
)

// Cost-based planning. The paper prescribes a fixed post-order for
// downward pruning (Procedure 6); any children-before-parents order is
// equally correct, because pruning a node reads only its children's
// final candidate sets. The planner exploits that freedom two ways:
//
//   - ordering: among the nodes whose children are all pruned, it
//     always processes the one with the smallest estimated candidate
//     set next, so cheap nodes shrink the sets feeding expensive ones
//     as early as possible;
//   - kernel choice: per node it compares the estimated cost of the
//     paper's per-candidate contour kernel against a multiway bitset
//     intersection (see prune.go) and picks the cheaper one.
//
// Estimates are card.Candidates over the reachability backend's exact
// label counts (reach.ContourIndex.LabelCount); non-label predicates
// fall back to the node count. The chosen order and the estimated vs.
// actual cardinalities are recorded in Stats.Plan so misestimates are
// observable. Options.NoPlan restores the paper's behavior exactly.

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
	// Order is the downward processing order the planner chose.
	Order []int `json:"order"`
	// Nodes is indexed by query node id.
	Nodes []PlanNode `json:"nodes"`
}

// String renders a compact one-line summary (order plus per-node
// kernel and est/init/final counts), for logs and debug output.
func (p *PlanInfo) String() string {
	var b strings.Builder
	b.WriteString("order=[")
	for i, u := range p.Order {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", u)
	}
	b.WriteString("]")
	for _, n := range p.Nodes {
		fmt.Fprintf(&b, " %d:%s(est=%d init=%d final=%d)", n.Node, n.Kernel, n.EstCands, n.InitCands, n.FinalCands)
	}
	return b.String()
}

// planQuery prepares the downward order (and, with the planner on, the
// PlanInfo and estimates) before candidates are materialized.
func (ec *evalContext) planQuery(q *core.Query) {
	if ec.opt.NoPlan {
		ec.planOrder = append(ec.planOrder[:0], q.PostOrder()...)
		ec.plan = nil
		return
	}
	n := len(q.Nodes)
	ec.planEst = growSlice(ec.planEst, n)
	for u := range q.Nodes {
		ec.planEst[u] = card.Candidates(q.Nodes[u].Attr, ec.h.LabelCount, ec.g.N())
	}
	ec.planReady = growSlice(ec.planReady, n)
	ec.planOrder = planDownwardOrder(q, ec.planEst, ec.planOrder[:0], ec.planReady)
	ec.plan = &PlanInfo{
		Order: append([]int(nil), ec.planOrder...),
		Nodes: make([]PlanNode, n),
	}
	for u := range q.Nodes {
		ec.plan.Nodes[u] = PlanNode{Node: u, Name: q.Nodes[u].Name, Kernel: KernelPaper, EstCands: ec.planEst[u]}
	}
}

// planDownwardOrder returns a children-before-parents order over q's
// nodes, greedily choosing the smallest-estimate ready node at every
// step. Queries are small (tens of nodes), so the O(n²) ready scan
// beats any heap. pending is caller-provided scratch of length ≥ n.
func planDownwardOrder(q *core.Query, est []int, out []int, pending []bool) []int {
	n := len(q.Nodes)
	kids := make([]int, n) // children not yet processed, per node
	for u := range q.Nodes {
		kids[u] = len(q.Nodes[u].Children)
		pending[u] = true
	}
	for len(out) < n {
		best := -1
		for u := range q.Nodes {
			if !pending[u] || kids[u] > 0 {
				continue
			}
			if best == -1 || est[u] < est[best] || (est[u] == est[best] && u < best) {
				best = u
			}
		}
		if best == -1 { // malformed tree; Validate rejects these
			break
		}
		out = append(out, best)
		pending[best] = false
		if p := q.Nodes[best].Parent; p != -1 {
			kids[p]--
		}
	}
	return out
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

// Kernel cost model, in rough "sequential edge visit" units (one BFS
// edge traversal = 1). The paper kernel pays one contour probe per
// (candidate, AD child), an adjacency scan per (candidate, PC child),
// and a contour merge per child. The multiway kernel pays a graph BFS
// per AD child (bounded by nodes+edges, touched sequentially), a
// neighbor sweep per PC child, and a word-wise AND per child. A probe
// is far more than one unit: over the 3-hop index it is an own-position
// check plus a shared chain-suffix walk with per-chain contour matches
// (measured ~2 orders of magnitude above an edge visit), over generic
// contours a closure-row scan (~the bitset row width). The constants
// only need to be right about which side of the crossover a node sits
// on.
const (
	chainProbeCost   = 48 // per (candidate, AD child) against a chain contour
	genericProbeCost = 8  // per (candidate, AD child) against a generic contour
	wordBits         = 64
)

// probeCostUnits prices one paper-kernel contour probe for the active
// reachability backend.
func (ec *evalContext) probeCostUnits() int {
	if ec.ch != nil {
		return chainProbeCost
	}
	return genericProbeCost
}

// multiwayDownBeatsPaper decides the downward kernel for a node with
// cand candidates, the given AD/PC child candidate totals, and kAD/kPC
// constrained children.
func (ec *evalContext) multiwayDownBeatsPaper(cand, adCands, pcCands, kAD, kPC, nodes, edges int) bool {
	paper := cand*(1+ec.probeCostUnits()*kAD) + adCands + pcCands
	multi := kAD*(nodes+edges) + pcCands + (kAD+kPC+1)*(nodes/wordBits+1) + cand
	return multi < paper
}

// multiwayUpBeatsPaper decides the upward kernel for a parent with
// parentCands candidates and adCands total candidates across its AD
// children (PC children are adjacency sweeps either way).
func (ec *evalContext) multiwayUpBeatsPaper(parentCands, adCands, kAD, nodes, edges int) bool {
	paper := ec.probeCostUnits()*adCands + parentCands
	multi := nodes + edges + (kAD+1)*(nodes/wordBits+1) + adCands
	return multi < paper
}

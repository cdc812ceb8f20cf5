package sub

import (
	"gtpq/internal/card"
	"gtpq/internal/catalog"
	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
)

// evalMode is the maintenance plan decide picked for one batch.
type evalMode int

const (
	modeSkip       evalMode = iota // batch provably cannot change the result
	modeRestricted                 // re-evaluate with the root seeded to the affected set
	modeFull                       // complete re-evaluation
)

func (m evalMode) String() string {
	switch m {
	case modeSkip:
		return "skip"
	case modeRestricted:
		return "restricted"
	default:
		return "full"
	}
}

type decision struct {
	mode   evalMode
	seed   []graph.NodeID // root seed (modeRestricted)
	seeder *gtea.Engine   // engine carrying EvalSeededStatsCtx
}

// decide analyzes one applied batch against one subscription and picks
// the cheapest sound maintenance plan. The analysis runs on the
// post-batch graph ev.DS.Graph, so paths through other additions of the
// same batch are seen.
//
// Soundness of the skip: additive deltas never change which existing
// vertices match an attribute predicate, so any embedding that exists
// now but not before must use a new vertex or a new edge. A new vertex
// is some query node's image (its predicate matches — check A). A new
// edge (x, y) either realizes a PC pattern edge directly (endpoint
// predicates match — check B) or lies on the path realizing an AD
// pattern edge (u, c), which forces u's image into the reverse-reach
// set of x and c's image into the forward-reach set of y (check C, via
// one budgeted BFS per direction from all batch edge endpoints). When
// no check fires, the result is unchanged — including for
// non-conjunctive queries, since no pattern-edge relation and no
// candidate set moved, so negated subtrees are equally unaffected.
//
// Soundness of the restricted re-evaluation (conjunctive only, where
// additive deltas are monotone): a new tuple's embedding uses a new
// element; the root's image reaches every image downward along tree
// edges, and any path into the new-vertex region crosses a batch edge,
// so the root image is itself new or reverse-reaches a batch edge
// source. Evaluating with the root candidates restricted to that set
// therefore finds every new tuple; the diff against the stored result
// is exactly the addition.
func decide(s *Subscription, ev catalog.ApplyEvent, budget int) decision {
	ds := ev.DS
	g := ds.Graph
	eng, flat := ds.Engine.(*gtea.Engine)
	if g == nil || !flat {
		// Sharded dataset: no single logical graph to analyze.
		return decision{mode: modeFull}
	}
	q := s.q
	batch := &ev.Batch
	n := g.N()
	newLo := graph.NodeID(n - len(batch.Nodes))

	// Check A: a new vertex matches some query node's predicate.
	affected := false
	for v := newLo; v < graph.NodeID(n) && !affected; v++ {
		for _, qn := range q.Nodes {
			if qn.Attr.Matches(g, v) {
				affected = true
				break
			}
		}
	}

	// Check B: a new edge's endpoints match a PC pattern edge.
	if !affected {
	pc:
		for _, qn := range q.Nodes {
			if qn.Parent < 0 || qn.PEdge != core.PC {
				continue
			}
			pp := q.Nodes[qn.Parent].Attr
			for _, e := range batch.Edges {
				if pp.Matches(g, e.From) && qn.Attr.Matches(g, e.To) {
					affected = true
					break pc
				}
			}
		}
	}

	// Reverse reachability from the batch edge sources. This doubles as
	// the restricted-eval root seed, so it runs even when A or B
	// already forced an evaluation.
	srcs := make([]graph.NodeID, 0, len(batch.Edges))
	tgts := make([]graph.NodeID, 0, len(batch.Edges))
	for _, e := range batch.Edges {
		srcs = append(srcs, e.From)
		tgts = append(tgts, e.To)
	}
	var upVis core.Bitset
	up, upOK := reachSet(g, srcs, g.In, budget, &upVis)
	if !upOK {
		// Neither the skip test nor the seed can be trusted.
		return decision{mode: modeFull}
	}

	// Check C: an AD pattern edge (u, c) with a u-candidate above some
	// batch edge and a c-candidate below one.
	if !affected {
		var downVis core.Bitset
		down, downOK := reachSet(g, tgts, g.Out, budget, &downVis)
		if !downOK {
			affected = true // inconclusive: cannot skip
		} else {
			anc := nodeFlags(g, q, up)
			desc := nodeFlags(g, q, down)
			for _, qn := range q.Nodes {
				if qn.Parent >= 0 && qn.PEdge == core.AD && anc[qn.Parent] && desc[qn.ID] {
					affected = true
					break
				}
			}
		}
	}
	if !affected {
		return decision{mode: modeSkip}
	}
	if !s.conj {
		// Negation can retract matches; the diff needs both directions.
		return decision{mode: modeFull}
	}

	// Seed = reverse-reach set plus the new vertices (a new tuple's
	// root image is one of these).
	seed := up
	for v := newLo; v < graph.NodeID(n); v++ {
		if !upVis.Has(v) {
			seed = append(seed, v)
		}
	}

	// Cardinality gate: the engine intersects the seed with the root's
	// candidates anyway, so what matters is how many seed vertices can
	// actually serve as roots. Restricted evaluation only wins while
	// that count stays well under the root's unrestricted estimate
	// (card.Candidates); at half or more, a full scan is no worse.
	rootPred := q.Nodes[q.Root].Attr
	rootSeed := 0
	for _, v := range seed {
		if rootPred.Matches(g, v) {
			rootSeed++
		}
	}
	estRoot := card.Candidates(rootPred, eng.LabelCount, n)
	if estRoot > 0 && rootSeed*2 > estRoot {
		return decision{mode: modeFull}
	}
	return decision{mode: modeRestricted, seed: seed, seeder: eng}
}

// reachSet collects the vertices reachable from starts (inclusive)
// along adj, visiting at most budget vertices; ok is false when the
// budget ran out with the frontier non-empty.
func reachSet(g *graph.Graph, starts []graph.NodeID, adj func(graph.NodeID) []graph.NodeID, budget int, vis *core.Bitset) ([]graph.NodeID, bool) {
	vis.Reset(g.N())
	out := make([]graph.NodeID, 0, len(starts))
	for _, v := range starts {
		if !vis.Has(v) {
			vis.Add(v)
			out = append(out, v)
		}
	}
	for i := 0; i < len(out); i++ {
		for _, w := range adj(out[i]) {
			if vis.Has(w) {
				continue
			}
			if len(out) >= budget {
				return out, false
			}
			vis.Add(w)
			out = append(out, w)
		}
	}
	return out, true
}

// nodeFlags reports, per query node, whether any vertex in set matches
// its attribute predicate.
func nodeFlags(g *graph.Graph, q *core.Query, set []graph.NodeID) []bool {
	flags := make([]bool, len(q.Nodes))
	for _, v := range set {
		for _, qn := range q.Nodes {
			if !flags[qn.ID] && qn.Attr.Matches(g, v) {
				flags[qn.ID] = true
			}
		}
	}
	return flags
}

package core

import (
	"gtpq/internal/graph"
	"gtpq/internal/logic"
)

// Satisfiable decides whether some data graph yields a non-empty answer
// (Theorem 1): after discarding unsatisfiable-attribute and
// non-independently-constraint predicate subtrees (their variables fixed
// to 0), the query is satisfiable iff fa(root) and fcs(root) both are.
func Satisfiable(q *Query) bool {
	// A backbone node with an unsatisfiable attribute predicate (or a
	// backbone node that fails the independently-constraint test, which
	// reduces to a parent or its own fs being unsatisfiable) kills every
	// match.
	for _, n := range q.Nodes {
		if n.Kind == Backbone && !n.Attr.Satisfiable() {
			return false
		}
	}
	qm := pruneForAnalysis(q)
	a := Analyze(qm)
	for _, n := range qm.Nodes {
		if n.Kind == Backbone && !a.IndepConstraint[n.ID] {
			return false
		}
	}
	return qm.Nodes[qm.Root].Attr.Satisfiable() && logic.Satisfiable(a.Fcs[qm.Root])
}

// pruneForAnalysis removes predicate subtrees that can never match
// (unsatisfiable attributes) or whose variables cannot matter
// (non-independently-constraint), assigning 0 to their variables —
// the preamble shared by Theorem 1 and Algorithm 1 (lines 1–2).
func pruneForAnalysis(q *Query) *Query {
	qm := q
	for {
		vals := map[int]bool{}
		for _, n := range qm.Nodes {
			if n.Kind == Predicate && !n.Attr.Satisfiable() {
				vals[n.ID] = false
			}
		}
		if len(vals) == 0 {
			a := Analyze(qm)
			for _, n := range qm.Nodes {
				if n.Kind == Predicate && !a.IndepConstraint[n.ID] {
					// Skip nodes whose ancestors are already scheduled.
					vals[n.ID] = false
				}
			}
		}
		if len(vals) == 0 {
			return qm
		}
		qm = removeSubtrees(qm, vals)
	}
}

// removeSubtrees returns a copy of q without the subtrees rooted at the
// keys of vals; each removed root's variable is fixed to the mapped
// constant in its parent's structural predicate. Node ids are compacted
// and all formulas renamed accordingly.
func removeSubtrees(q *Query, vals map[int]bool) *Query {
	removed := make([]bool, len(q.Nodes))
	var markAll func(u int)
	markAll = func(u int) {
		removed[u] = true
		for _, c := range q.Nodes[u].Children {
			markAll(c)
		}
	}
	for u := range vals {
		markAll(u)
	}
	// Old->new id mapping over kept nodes, preorder to keep parents
	// before children.
	remap := make([]int, len(q.Nodes))
	for i := range remap {
		remap[i] = -1
	}
	out := NewQuery()
	for _, u := range q.PreOrder() {
		if removed[u] {
			continue
		}
		n := q.Nodes[u]
		var nu int
		if n.Parent == -1 {
			nu = out.AddRoot(n.Name, n.Attr)
		} else {
			nu = out.AddNode(n.Name, n.Kind, remap[n.Parent], n.PEdge, n.Attr)
		}
		remap[u] = nu
		if n.Output {
			out.SetOutput(nu)
		}
	}
	// Rewrite structural predicates: removed children fixed to their
	// constants, surviving variables renamed.
	for _, u := range q.PreOrder() {
		if removed[u] {
			continue
		}
		f := q.Fs(u)
		f = f.Subst(func(v int) *logic.Formula {
			if removed[v] {
				// The constant fixed for this child: look up the nearest
				// scheduled ancestor that caused removal.
				if b, ok := vals[v]; ok {
					if b {
						return logic.True()
					}
					return logic.False()
				}
				// v was removed as a descendant of a scheduled root; its
				// variable cannot occur in a kept node's fs (fs only
				// mentions own children), but be safe.
				return logic.False()
			}
			return logic.Var(remap[v])
		})
		out.SetStruct(remap[u], logic.Simplify(f))
	}
	return out
}

// Contained decides Q1 ⊑ Q2 (Theorem 3) by searching for a homomorphism
// from Q2 to Q1.
func Contained(q1, q2 *Query) bool {
	a1, a2 := Analyze(q1), Analyze(q2)

	out1, out2 := q1.Outputs(), q2.Outputs()
	if len(out1) != len(out2) {
		return false
	}
	// Preorder list of Q2's independently constraint nodes (non-IC nodes
	// map to ⊥ and impose nothing).
	var icNodes []int
	for _, u := range q2.PreOrder() {
		if a2.IndepConstraint[u] {
			icNodes = append(icNodes, u)
		}
	}
	lambda := make(map[int]int, len(icNodes))
	outPos2 := make(map[int]int, len(out2))
	for i, u := range out2 {
		outPos2[u] = i
	}

	offset := len(q1.Nodes)
	check := func() bool {
		// Output bijection preserving tuple position.
		used := make(map[int]bool, len(out1))
		for i, u2 := range out2 {
			img, ok := lambda[u2]
			if !ok || used[img] || img != out1[i] {
				return false
			}
			used[img] = true
		}
		// fcs(root1) → fcs(root2)[renamed].
		renamed := a2.Fcs[q2.Root].Subst(func(v int) *logic.Formula {
			if img, ok := lambda[v]; ok {
				return logic.Var(img)
			}
			return logic.Var(v + offset) // non-IC leftovers: keep distinct
		})
		return logic.Implied(a1.Fcs[q1.Root], renamed)
	}

	var search func(i int) bool
	search = func(i int) bool {
		if i == len(icNodes) {
			return check()
		}
		u := icNodes[i]
		n2 := q2.Nodes[u]
		var candidates []int
		if n2.Parent == -1 {
			candidates = []int{q1.Root}
		} else {
			pImg, ok := lambda[n2.Parent]
			if !ok {
				// Parent was non-IC: the paper's condition (3) constrains
				// only IC-parent/IC-child pairs; allow any image.
				for id := range q1.Nodes {
					candidates = append(candidates, id)
				}
			} else if n2.PEdge == PC {
				for _, c := range q1.Nodes[pImg].Children {
					if q1.Nodes[c].PEdge == PC {
						candidates = append(candidates, c)
					}
				}
			} else {
				candidates = q1.Descendants(pImg)
			}
		}
		for _, img := range candidates {
			// λ(u) ⊢ u: the image's attribute predicate must entail u's.
			if !n2.Attr.ImpliedBy(q1.Nodes[img].Attr) {
				continue
			}
			lambda[u] = img
			if search(i + 1) {
				return true
			}
			delete(lambda, u)
		}
		return false
	}
	_ = a1
	return search(0)
}

// Equivalent decides Q1 ≡ Q2.
func Equivalent(q1, q2 *Query) bool {
	return Contained(q1, q2) && Contained(q2, q1)
}

// Minimize implements Algorithm 1 (minGTPQ): it returns an equivalent
// query with redundant nodes removed. The worst case involves SAT and
// tautology checks, exponential in the (small) query size.
func Minimize(q *Query) *Query {
	if !Satisfiable(q) {
		// The minimal equivalent of an unsatisfiable query: a single
		// unsatisfiable root (answers are empty on every graph).
		un := NewQuery()
		r := un.AddRoot(q.Nodes[q.Root].Name, AttrPred{
			{Attr: "label", Op: EQ, Val: graph.StrV("⊥")},
			{Attr: "label", Op: NE, Val: graph.StrV("⊥")},
		})
		un.SetOutput(r)
		return un
	}
	// Lines 1–2: drop unsatisfiable-attribute and non-IC subtrees, then
	// shrink every structural predicate to its essential variables.
	qm := pruneForAnalysis(q.Clone())
	for {
		for _, n := range qm.Nodes {
			if n.Struct != nil {
				n.Struct = logic.MinimizeVars(n.Struct)
			}
		}
		// Variable elimination may have produced new non-IC nodes.
		before := qm.Size()
		qm = pruneForAnalysis(qm)
		if qm.Size() == before {
			break
		}
	}

	// Lines 4–7: remove subtrees whose complete structural predicate is
	// unsatisfiable, fixing their variables to 0.
	for {
		a := Analyze(qm)
		removedAny := false
		for _, u := range qm.PostOrder() {
			if u == qm.Root {
				continue
			}
			if !logic.Satisfiable(a.Fcs[u]) {
				qm = removeSubtrees(qm, map[int]bool{u: false})
				removedAny = true
				break
			}
		}
		if !removedAny {
			break
		}
	}

	// Lines 8–19: subsumption-based elimination.
	for {
		a := Analyze(qm)
		root := qm.Root
		changed := false
		for _, u := range qm.PreOrder() {
			if u == root {
				continue
			}
			fcsRoot := a.Fcs[root]
			switch {
			case logic.Implied(fcsRoot, logic.Var(u)):
				// u is present in every certificate: any node subsumed by
				// u is guaranteed too and can be removed (its variable
				// fixed to 1), after relocating output markers into an
				// isomorphic surviving subtree.
				for _, u2 := range qm.PreOrder() {
					if u2 == u || u2 == root || !a.Subsumed(u2, u) {
						continue
					}
					if qm.relocateOutputs(a, u2) {
						qm = removeSubtrees(qm, map[int]bool{u2: true})
						changed = true
						break
					}
				}
			case logic.Implied(fcsRoot, logic.Not(logic.Var(u))):
				// u is absent from every certificate: any node that
				// subsumes u (whose presence would force u's) can never
				// match either.
				for _, u2 := range qm.PreOrder() {
					if u2 == u || u2 == root || !a.Subsumed(u, u2) {
						continue
					}
					if !subtreeHasOutput(qm, u2) {
						qm = removeSubtrees(qm, map[int]bool{u2: false})
						changed = true
						break
					}
				}
			}
			if changed {
				break
			}
		}
		if !changed {
			break
		}
	}
	return qm
}

// relocateOutputs prepares subtree(u2) for removal: every output node in
// it must have an isomorphic twin outside (lines 12–14); when found the
// marker moves to the twin. A twin takes a marker only if it hangs off
// the same edge type (an AD output moved to a PC twin would narrow its
// column) and is not an output already (two columns cannot merge into
// one). It reports whether removal is safe.
func (q *Query) relocateOutputs(a *Analysis, u2 int) bool {
	sub := append([]int{u2}, q.Descendants(u2)...)
	inSub := make(map[int]bool, len(sub))
	for _, x := range sub {
		inSub[x] = true
	}
	type move struct{ from, to int }
	var moves []move
	taken := map[int]bool{}
	for _, uo := range sub {
		if !q.Nodes[uo].Output {
			continue
		}
		found := -1
		for cand, n := range q.Nodes {
			if inSub[cand] || cand == uo || n.Output || taken[cand] || n.PEdge != q.Nodes[uo].PEdge {
				continue
			}
			// Only backbone twins can carry an output marker (outputs are
			// restricted to backbone nodes); otherwise skip the removal
			// rather than produce an invalid query.
			if n.Kind != Backbone {
				continue
			}
			if a.Similar(uo, cand) && subtreeIsomorphic(q, uo, cand) {
				found = cand
				break
			}
		}
		if found == -1 {
			return false
		}
		taken[found] = true
		moves = append(moves, move{uo, found})
	}
	for _, m := range moves {
		q.Nodes[m.from].Output = false
		q.Nodes[m.to].Output = true
	}
	return true
}

// subtreeHasOutput reports whether subtree(u) contains an output node.
func subtreeHasOutput(q *Query, u int) bool {
	if q.Nodes[u].Output {
		return true
	}
	for _, c := range q.Nodes[u].Children {
		if subtreeHasOutput(q, c) {
			return true
		}
	}
	return false
}

// subtreeIsomorphic reports whether the subtree patterns rooted at x and
// y are isomorphic: mutual attribute implication, same kind and edge
// types, equivalent structural predicates, and a bijection between
// children.
func subtreeIsomorphic(q *Query, x, y int) bool {
	nx, ny := q.Nodes[x], q.Nodes[y]
	if nx.Kind != ny.Kind {
		return false
	}
	if !nx.Attr.ImpliedBy(ny.Attr) || !ny.Attr.ImpliedBy(nx.Attr) {
		return false
	}
	cx, cy := nx.Children, ny.Children
	if len(cx) != len(cy) {
		return false
	}
	used := make([]bool, len(cy))
	var pair func(i int, mapping map[int]int) bool
	pair = func(i int, mapping map[int]int) bool {
		if i == len(cx) {
			// Structural predicates equivalent under the child pairing.
			fx := q.Fs(x).Subst(func(v int) *logic.Formula {
				if w, ok := mapping[v]; ok {
					return logic.Var(w)
				}
				return nil
			})
			return logic.Equivalent(fx, q.Fs(y))
		}
		for j := range cy {
			if used[j] || q.Nodes[cx[i]].PEdge != q.Nodes[cy[j]].PEdge {
				continue
			}
			if !subtreeIsomorphic(q, cx[i], cy[j]) {
				continue
			}
			used[j] = true
			mapping[cx[i]] = cy[j]
			if pair(i+1, mapping) {
				return true
			}
			delete(mapping, cx[i])
			used[j] = false
		}
		return false
	}
	return pair(0, map[int]int{})
}

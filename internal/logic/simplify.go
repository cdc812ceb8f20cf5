package logic

// Simplify applies cheap equivalence-preserving rewrites: constant
// folding (already performed by the constructors), duplicate-operand
// removal, complementary-literal detection (x ∧ ¬x → false, x ∨ ¬x →
// true) and absorption of repeated subterms. It does not attempt full
// minimization; it exists so predicates stay small after the repeated
// substitutions performed by the query analyses.
func Simplify(f *Formula) *Formula {
	switch f.kind {
	case KindTrue, KindFalse, KindVar:
		return f
	case KindNot:
		return Not(Simplify(f.sub[0]))
	case KindAnd, KindOr:
		subs := make([]*Formula, len(f.sub))
		for i, s := range f.sub {
			subs[i] = Simplify(s)
		}
		g := nary(f.kind, subs)
		if g.kind != f.kind {
			return g
		}
		return dedupNary(g)
	}
	panic("logic: bad formula kind")
}

func dedupNary(f *Formula) *Formula {
	seen := make(map[string]bool, len(f.sub))
	posLit := make(map[int]bool)
	negLit := make(map[int]bool)
	out := make([]*Formula, 0, len(f.sub))
	for _, s := range f.sub {
		key := s.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		if s.kind == KindVar {
			if negLit[s.v] {
				return complementResult(f.kind)
			}
			posLit[s.v] = true
		}
		if s.kind == KindNot && s.sub[0].kind == KindVar {
			v := s.sub[0].v
			if posLit[v] {
				return complementResult(f.kind)
			}
			negLit[v] = true
		}
		out = append(out, s)
	}
	return nary(f.kind, out)
}

func complementResult(k Kind) *Formula {
	if k == KindAnd {
		return falseF
	}
	return trueF
}

// MinimizeVars returns an equivalent formula using the fewest variables
// obtainable by fixing redundant variables to constants: a variable v is
// redundant when f[v/0] ≡ f[v/1], in which case it is eliminated. This is
// the "simplified to equivalent formulas with minimum variables" step of
// Algorithm 1 (line 2 commentary). The result is Simplify-ed.
func MinimizeVars(f *Formula) *Formula {
	vars := f.Vars()
	// Iterate to a fixpoint: eliminating one variable can make another
	// redundant.
	changed := true
	for changed {
		changed = false
		for _, v := range vars {
			if !f.HasVar(v) {
				continue
			}
			f0 := f.Assign(v, false)
			if Equivalent(f0, f.Assign(v, true)) {
				f = f0
				changed = true
			}
		}
	}
	return Simplify(f)
}

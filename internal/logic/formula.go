// Package logic implements the propositional calculus used by GTPQ
// structural predicates: formula construction, evaluation, substitution,
// simplification, CNF conversion, satisfiability and tautology checking.
//
// Variables are identified by small non-negative integers; in the query
// layer a variable id is the query-node id the variable speaks about
// (p_u in the paper).
package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates the formula node types.
type Kind uint8

const (
	KindTrue Kind = iota
	KindFalse
	KindVar
	KindNot
	KindAnd
	KindOr
)

// Formula is an immutable propositional formula. The zero value is not
// valid; use the constructors. Formulas share subterms freely — never
// mutate one after construction.
type Formula struct {
	kind Kind
	v    int        // variable id for KindVar
	sub  []*Formula // operands for Not (1), And/Or (>=2)
}

// Shared constants.
var (
	trueF  = &Formula{kind: KindTrue}
	falseF = &Formula{kind: KindFalse}
)

// True returns the constant true formula.
func True() *Formula { return trueF }

// False returns the constant false formula.
func False() *Formula { return falseF }

// Var returns the formula consisting of the single variable v.
func Var(v int) *Formula {
	if v < 0 {
		panic("logic: negative variable id")
	}
	return &Formula{kind: KindVar, v: v}
}

// Not returns the negation of f, folding constants and double negation.
func Not(f *Formula) *Formula {
	switch f.kind {
	case KindTrue:
		return falseF
	case KindFalse:
		return trueF
	case KindNot:
		return f.sub[0]
	}
	return &Formula{kind: KindNot, sub: []*Formula{f}}
}

// And returns the conjunction of fs, folding constants and flattening
// nested conjunctions. And() is True.
func And(fs ...*Formula) *Formula { return nary(KindAnd, fs) }

// Or returns the disjunction of fs, folding constants and flattening
// nested disjunctions. Or() is False.
func Or(fs ...*Formula) *Formula { return nary(KindOr, fs) }

func nary(k Kind, fs []*Formula) *Formula {
	neutral, absorbing := trueF, falseF
	if k == KindOr {
		neutral, absorbing = falseF, trueF
	}
	out := make([]*Formula, 0, len(fs))
	for _, f := range fs {
		if f == nil {
			continue
		}
		switch {
		case f.kind == neutral.kind:
			continue
		case f.kind == absorbing.kind:
			return absorbing
		case f.kind == k:
			out = append(out, f.sub...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return neutral
	case 1:
		return out[0]
	}
	return &Formula{kind: k, sub: out}
}

// Implies returns f -> g encoded as ¬f ∨ g.
func Implies(f, g *Formula) *Formula { return Or(Not(f), g) }

// Xor returns f ⊕ g encoded as (f ∧ ¬g) ∨ (¬f ∧ g).
func Xor(f, g *Formula) *Formula {
	return Or(And(f, Not(g)), And(Not(f), g))
}

// Kind reports the top-level connective of f.
func (f *Formula) Kind() Kind { return f.kind }

// VarID returns the variable id; it panics unless f is a variable.
func (f *Formula) VarID() int {
	if f.kind != KindVar {
		panic("logic: VarID on non-variable")
	}
	return f.v
}

// Operands returns the operand slice of f (nil for constants and
// variables). The slice must not be modified.
func (f *Formula) Operands() []*Formula { return f.sub }

// Eval evaluates f under the assignment function val.
func (f *Formula) Eval(val func(v int) bool) bool {
	switch f.kind {
	case KindTrue:
		return true
	case KindFalse:
		return false
	case KindVar:
		return val(f.v)
	case KindNot:
		return !f.sub[0].Eval(val)
	case KindAnd:
		for _, s := range f.sub {
			if !s.Eval(val) {
				return false
			}
		}
		return true
	case KindOr:
		for _, s := range f.sub {
			if s.Eval(val) {
				return true
			}
		}
		return false
	}
	panic("logic: bad formula kind")
}

// CollectVars adds every variable occurring in f to set.
func (f *Formula) CollectVars(set map[int]bool) {
	switch f.kind {
	case KindVar:
		set[f.v] = true
	case KindNot, KindAnd, KindOr:
		for _, s := range f.sub {
			s.CollectVars(set)
		}
	}
}

// Vars returns the sorted list of variables occurring in f.
func (f *Formula) Vars() []int {
	set := make(map[int]bool)
	f.CollectVars(set)
	vs := make([]int, 0, len(set))
	for v := range set {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// HasVar reports whether variable v occurs in f.
func (f *Formula) HasVar(v int) bool {
	switch f.kind {
	case KindVar:
		return f.v == v
	case KindNot, KindAnd, KindOr:
		for _, s := range f.sub {
			if s.HasVar(v) {
				return true
			}
		}
	}
	return false
}

// Subst returns f with every variable v replaced by repl(v). repl may
// return nil to keep the variable unchanged. Constant folding applies.
func (f *Formula) Subst(repl func(v int) *Formula) *Formula {
	switch f.kind {
	case KindTrue, KindFalse:
		return f
	case KindVar:
		if r := repl(f.v); r != nil {
			return r
		}
		return f
	case KindNot:
		return Not(f.sub[0].Subst(repl))
	case KindAnd, KindOr:
		out := make([]*Formula, len(f.sub))
		for i, s := range f.sub {
			out[i] = s.Subst(repl)
		}
		return nary(f.kind, out)
	}
	panic("logic: bad formula kind")
}

// Assign returns f with variable v fixed to the constant value b
// (the paper's fs[p_u/x] notation).
func (f *Formula) Assign(v int, b bool) *Formula {
	c := falseF
	if b {
		c = trueF
	}
	return f.Subst(func(w int) *Formula {
		if w == v {
			return c
		}
		return nil
	})
}

// Rename returns f with variables renamed through m; variables absent
// from m are kept.
func (f *Formula) Rename(m map[int]int) *Formula {
	return f.Subst(func(v int) *Formula {
		if w, ok := m[v]; ok {
			return Var(w)
		}
		return nil
	})
}

// NegationFree reports whether f contains no negation (union-conjunctive
// structural predicates in the paper).
func (f *Formula) NegationFree() bool {
	switch f.kind {
	case KindNot:
		return false
	case KindAnd, KindOr:
		for _, s := range f.sub {
			if !s.NegationFree() {
				return false
			}
		}
	}
	return true
}

// ConjunctiveOnly reports whether f uses only conjunction over plain
// variables (a conjunctive structural predicate in the paper).
func (f *Formula) ConjunctiveOnly() bool {
	switch f.kind {
	case KindTrue, KindFalse, KindVar:
		return true
	case KindAnd:
		for _, s := range f.sub {
			if !s.ConjunctiveOnly() {
				return false
			}
		}
		return true
	}
	return false
}

// Size returns the number of connective and leaf occurrences in f.
func (f *Formula) Size() int {
	n := 1
	for _, s := range f.sub {
		n += s.Size()
	}
	return n
}

// String renders f with ! & | and parentheses, variables as v<N>.
func (f *Formula) String() string {
	return f.Render(func(v int) string { return fmt.Sprintf("v%d", v) })
}

// Render renders f using name to print variables.
func (f *Formula) Render(name func(v int) string) string {
	var b strings.Builder
	f.render(&b, name, 0)
	return b.String()
}

// precedence: Or=1, And=2, Not=3, atoms=4
func (f *Formula) prec() int {
	switch f.kind {
	case KindOr:
		return 1
	case KindAnd:
		return 2
	case KindNot:
		return 3
	}
	return 4
}

func (f *Formula) render(b *strings.Builder, name func(int) string, parent int) {
	p := f.prec()
	open := p < parent
	if open {
		b.WriteByte('(')
	}
	switch f.kind {
	case KindTrue:
		b.WriteString("true")
	case KindFalse:
		b.WriteString("false")
	case KindVar:
		b.WriteString(name(f.v))
	case KindNot:
		b.WriteByte('!')
		f.sub[0].render(b, name, p+1)
	case KindAnd, KindOr:
		sep := " & "
		if f.kind == KindOr {
			sep = " | "
		}
		for i, s := range f.sub {
			if i > 0 {
				b.WriteString(sep)
			}
			s.render(b, name, p)
		}
	}
	if open {
		b.WriteByte(')')
	}
}

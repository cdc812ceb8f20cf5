package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func v(i int) *Formula { return Var(i) }

func TestConstructorsFoldConstants(t *testing.T) {
	cases := []struct {
		got  *Formula
		want *Formula
	}{
		{And(), True()},
		{Or(), False()},
		{And(True(), True()), True()},
		{And(True(), False()), False()},
		{Or(False(), False()), False()},
		{Or(True(), v(1)), True()},
		{And(False(), v(1)), False()},
		{And(v(1)), v(1)},
		{Or(v(2)), v(2)},
		{Not(True()), False()},
		{Not(False()), True()},
		{Not(Not(v(3))), v(3)},
	}
	for i, c := range cases {
		if c.got.String() != c.want.String() {
			t.Errorf("case %d: got %s want %s", i, c.got, c.want)
		}
	}
}

func TestFlattening(t *testing.T) {
	f := And(v(1), And(v(2), And(v(3), v(4))))
	if len(f.Operands()) != 4 {
		t.Fatalf("nested And not flattened: %s", f)
	}
	g := Or(Or(v(1), v(2)), Or(v(3)))
	if len(g.Operands()) != 3 {
		t.Fatalf("nested Or not flattened: %s", g)
	}
}

func TestEval(t *testing.T) {
	f := Or(And(v(1), Not(v(2))), v(3))
	cases := []struct {
		a1, a2, a3 bool
		want       bool
	}{
		{true, false, false, true},
		{true, true, false, false},
		{false, false, false, false},
		{false, true, true, true},
	}
	for _, c := range cases {
		m := map[int]bool{1: c.a1, 2: c.a2, 3: c.a3}
		if got := f.Eval(func(v int) bool { return m[v] }); got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", m, got, c.want)
		}
	}
}

func TestVarsAndHasVar(t *testing.T) {
	f := Or(And(v(5), Not(v(2))), v(9), v(2))
	vs := f.Vars()
	want := []int{2, 5, 9}
	if len(vs) != len(want) {
		t.Fatalf("Vars() = %v, want %v", vs, want)
	}
	for i := range vs {
		if vs[i] != want[i] {
			t.Fatalf("Vars() = %v, want %v", vs, want)
		}
	}
	if !f.HasVar(5) || f.HasVar(7) {
		t.Errorf("HasVar wrong: has5=%v has7=%v", f.HasVar(5), f.HasVar(7))
	}
}

func TestAssignAndRename(t *testing.T) {
	f := Or(And(v(1), v(2)), Not(v(1)))
	g := f.Assign(1, true)
	if !Equivalent(g, v(2)) {
		t.Errorf("Assign(1,true) = %s, want v2", g)
	}
	h := f.Assign(1, false)
	if !Tautology(h) {
		t.Errorf("Assign(1,false) = %s, want tautology", h)
	}
	r := f.Rename(map[int]int{1: 10, 2: 20})
	if r.HasVar(1) || r.HasVar(2) || !r.HasVar(10) || !r.HasVar(20) {
		t.Errorf("Rename produced %s", r)
	}
}

func TestNegationFreeAndConjunctive(t *testing.T) {
	if !And(v(1), Or(v(2), v(3))).NegationFree() {
		t.Error("And/Or should be negation-free")
	}
	if And(v(1), Not(v(2))).NegationFree() {
		t.Error("negation not detected")
	}
	if !And(v(1), v(2), v(3)).ConjunctiveOnly() {
		t.Error("pure conjunction should be conjunctive-only")
	}
	if Or(v(1), v(2)).ConjunctiveOnly() {
		t.Error("Or is not conjunctive-only")
	}
}

func TestSATBasics(t *testing.T) {
	if !Satisfiable(v(1)) {
		t.Error("v1 should be satisfiable")
	}
	if Satisfiable(And(v(1), Not(v(1)))) {
		t.Error("contradiction should be unsatisfiable")
	}
	if !Tautology(Or(v(1), Not(v(1)))) {
		t.Error("excluded middle should be a tautology")
	}
	ok, m := SAT(And(v(3), Not(v(7))))
	if !ok || !m[3] || m[7] {
		t.Errorf("SAT model wrong: ok=%v m=%v", ok, m)
	}
}

func TestEquivalentAndImplied(t *testing.T) {
	f := Not(And(v(1), v(2)))
	g := Or(Not(v(1)), Not(v(2)))
	if !Equivalent(f, g) {
		t.Error("De Morgan equivalence failed")
	}
	if !Implied(And(v(1), v(2)), v(1)) {
		t.Error("x&y should imply x")
	}
	if Implied(v(1), And(v(1), v(2))) {
		t.Error("x should not imply x&y")
	}
}

// randFormula builds a random formula over variables [0,nv).
func randFormula(r *rand.Rand, depth, nv int) *Formula {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(6) {
		case 0:
			return True()
		case 1:
			return False()
		default:
			return Var(r.Intn(nv))
		}
	}
	switch r.Intn(3) {
	case 0:
		return Not(randFormula(r, depth-1, nv))
	case 1:
		n := 2 + r.Intn(2)
		sub := make([]*Formula, n)
		for i := range sub {
			sub[i] = randFormula(r, depth-1, nv)
		}
		return And(sub...)
	default:
		n := 2 + r.Intn(2)
		sub := make([]*Formula, n)
		for i := range sub {
			sub[i] = randFormula(r, depth-1, nv)
		}
		return Or(sub...)
	}
}

func TestDPLLAgreesWithBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		f := randFormula(r, 4, 6)
		vars := f.Vars()
		brute, _ := bruteSAT(f, vars)
		viaDPLL, m := dpllSAT(f)
		if brute != viaDPLL {
			t.Fatalf("formula %s: brute=%v dpll=%v", f, brute, viaDPLL)
		}
		if viaDPLL {
			if !f.Eval(func(v int) bool { return m[v] }) {
				t.Fatalf("formula %s: DPLL model %v does not satisfy", f, m)
			}
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"v1 & v2",
		"v1 | v2 & v3",
		"!(v1 | v2)",
		"!v1 & (v2 | !v3)",
		"true",
		"false | v0",
		"(v1 & v2) | (!v1 & v3)",
	}
	for _, s := range cases {
		f, err := Parse(s, nil)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		g, err := Parse(f.String(), nil)
		if err != nil {
			t.Fatalf("reparse of %q (%q): %v", s, f.String(), err)
		}
		if !Equivalent(f, g) {
			t.Errorf("round trip changed semantics: %q -> %q", s, g.String())
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	f := MustParse("v1 | v2 & v3", nil)
	want := Or(v(1), And(v(2), v(3)))
	if !Equivalent(f, want) || f.Kind() != KindOr {
		t.Errorf("precedence wrong: %s", f)
	}
	g := MustParse("!v1 & v2", nil)
	if g.Kind() != KindAnd {
		t.Errorf("! should bind tighter than &: %s", g)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "v1 &", "(v1", "v1 v2", "&", "v1 | | v2", "@"}
	for _, s := range bad {
		if _, err := Parse(s, nil); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseResolver(t *testing.T) {
	names := map[string]int{"bidder": 1, "seller": 2}
	f, err := Parse("bidder & !seller", func(n string) (int, error) {
		return names[n], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(f, And(v(1), Not(v(2)))) {
		t.Errorf("resolver parse wrong: %s", f)
	}
}

func TestCNFEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		f := randFormula(r, 4, 5)
		g := FromCNF(ToCNF(f))
		if !Equivalent(f, g) {
			t.Fatalf("CNF changed semantics: %s vs %s", f, g)
		}
	}
}

func TestDNFEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		f := randFormula(r, 4, 5)
		g := FromDNF(ToDNF(f))
		if !Equivalent(f, g) {
			t.Fatalf("DNF changed semantics: %s vs %s", f, g)
		}
	}
}

func TestCNFExponentialBlowup(t *testing.T) {
	// (x1&y1) | (x2&y2) | ... | (xn&yn) has 2^n CNF clauses — the blow-up
	// the paper cites against B-twig normalization.
	n := 8
	terms := make([]*Formula, n)
	for i := 0; i < n; i++ {
		terms[i] = And(v(2*i), v(2*i+1))
	}
	f := Or(terms...)
	cs := ToCNF(f)
	if len(cs) != 1<<uint(n) {
		t.Errorf("expected %d clauses, got %d", 1<<uint(n), len(cs))
	}
}

func TestSimplify(t *testing.T) {
	f := And(v(1), v(1), Or(v(2), v(2)))
	g := Simplify(f)
	if g.Size() >= f.Size() {
		t.Errorf("Simplify did not shrink %s -> %s", f, g)
	}
	if !Equivalent(f, g) {
		t.Errorf("Simplify changed semantics")
	}
	if Simplify(And(v(1), Not(v(1)))).Kind() != KindFalse {
		t.Error("x & !x should simplify to false")
	}
	if Simplify(Or(v(1), Not(v(1)))).Kind() != KindTrue {
		t.Error("x | !x should simplify to true")
	}
}

func TestSimplifyPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		f := randFormula(r, 4, 5)
		if !Equivalent(f, Simplify(f)) {
			t.Fatalf("Simplify changed semantics of %s", f)
		}
	}
}

func TestMinimizeVars(t *testing.T) {
	// v2 is redundant in (v1 & v2) | (v1 & !v2)
	f := Or(And(v(1), v(2)), And(v(1), Not(v(2))))
	g := MinimizeVars(f)
	if g.HasVar(2) {
		t.Errorf("MinimizeVars kept redundant v2: %s", g)
	}
	if !Equivalent(f, g) {
		t.Errorf("MinimizeVars changed semantics")
	}
}

func TestMinimizeVarsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 150; i++ {
		f := randFormula(r, 3, 4)
		g := MinimizeVars(f)
		if !Equivalent(f, g) {
			t.Fatalf("MinimizeVars changed semantics of %s -> %s", f, g)
		}
		if len(g.Vars()) > len(f.Vars()) {
			t.Fatalf("MinimizeVars grew variable set")
		}
	}
}

func TestQuickSubstEquivalence(t *testing.T) {
	// Property: substituting a variable with an equivalent formula
	// preserves overall evaluation on random assignments.
	r := rand.New(rand.NewSource(13))
	cfg := &quick.Config{MaxCount: 200, Rand: r}
	err := quick.Check(func(bits uint8) bool {
		f := randFormula(r, 3, 4)
		repl := randFormula(r, 2, 4)
		g := f.Subst(func(w int) *Formula {
			if w == 0 {
				return repl
			}
			return nil
		})
		val := func(v int) bool { return bits&(1<<uint(v%8)) != 0 }
		manual := f.Eval(func(v int) bool {
			if v == 0 {
				return repl.Eval(val)
			}
			return val(v)
		})
		return g.Eval(val) == manual
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestRenderWithNames(t *testing.T) {
	f := And(v(1), Not(v(2)))
	s := f.Render(func(v int) string {
		return map[int]string{1: "bidder", 2: "seller"}[v]
	})
	if s != "bidder & !seller" {
		t.Errorf("Render = %q", s)
	}
}

func TestSizeAndString(t *testing.T) {
	f := Or(And(v(1), v(2)), Not(v(3)))
	if f.Size() != 6 {
		t.Errorf("Size = %d, want 6", f.Size())
	}
	if f.String() != "v1 & v2 | !v3" {
		t.Errorf("String = %q", f.String())
	}
}

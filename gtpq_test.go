package gtpq

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

// demoGraph: a0 -> b1 -> c2 ; a0 -> c3 ; a4 -> b5 (no c below a4's b).
func demoGraph() (*Graph, []NodeID) {
	g := NewGraph()
	a0 := g.AddNode("a", nil)
	b1 := g.AddNode("b", nil)
	c2 := g.AddNode("c", nil)
	c3 := g.AddNode("c", nil)
	a4 := g.AddNode("a", nil)
	b5 := g.AddNode("b", nil)
	g.AddEdge(a0, b1)
	g.AddEdge(b1, c2)
	g.AddEdge(a0, c3)
	g.AddEdge(a4, b5)
	return g, []NodeID{a0, b1, c2, c3, a4, b5}
}

func TestEndToEndDSL(t *testing.T) {
	g, ids := demoGraph()
	q, err := ParseQuery(`
node x label=a output
pnode y label=c parent=x edge=ad
pred x: y`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(g).Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != ids[0] {
		t.Fatalf("rows = %v, want [[a0]]", res.Rows)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "x" {
		t.Errorf("columns = %v", res.Columns)
	}
	if res.Stats.Input == 0 {
		t.Error("stats not populated")
	}
}

func TestBuilderNegation(t *testing.T) {
	g, ids := demoGraph()
	q, err := NewBuilder("x", "a").
		Filter("y", "c", "x", false).
		Predicate("x", "!y").
		Output("x").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(g).Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != ids[4] {
		t.Fatalf("rows = %v, want [[a4]]", res.Rows)
	}
}

func TestBuilderWhereAndAttrs(t *testing.T) {
	g := NewGraph()
	v1 := g.AddNode("p", map[string]interface{}{"year": 2005})
	g.AddNode("p", map[string]interface{}{"year": 1999})
	q, err := NewBuilder("x", "p").Where("x", "year", ">=", 2000).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(g).Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != v1 {
		t.Fatalf("rows = %v, want [[v1]]", res.Rows)
	}
}

func TestStaticAnalyses(t *testing.T) {
	mk := func(pred string) *Query {
		q, err := NewBuilder("x", "a").
			Filter("y", "b", "x", false).
			Predicate("x", pred).
			Output("x").
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	if !Satisfiable(mk("y")) {
		t.Error("y should be satisfiable")
	}
	if Satisfiable(mk("y & !y")) {
		t.Error("y & !y should be unsatisfiable")
	}
	strict, loose := mk("y"), mk("y | !y")
	if !Contained(strict, loose) {
		t.Error("strict ⊑ loose expected")
	}
	if Contained(loose, strict) {
		t.Error("loose ⊑ strict must fail")
	}
	if !EquivalentQueries(strict, strict) {
		t.Error("self equivalence failed")
	}
	m := Minimize(loose)
	if m.Size() >= loose.Size() {
		t.Errorf("Minimize(y|!y) should drop the redundant filter: %d -> %d", loose.Size(), m.Size())
	}
}

func TestQueryFormatRoundTrip(t *testing.T) {
	q, err := ParseQuery(`
node x label=a output
pnode y label=b parent=x edge=pc
pred x: !y`)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ParseQuery(q.Format())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, q.Format())
	}
	if !EquivalentQueries(q, q2) {
		t.Error("format round trip changed semantics")
	}
	if !strings.Contains(q.String(), "!y") {
		t.Errorf("String() should show the predicate: %s", q.String())
	}
}

func TestEvalGroupedAPI(t *testing.T) {
	g := NewGraph()
	s1 := g.AddNode("store", nil)
	s2 := g.AddNode("store", nil)
	p1 := g.AddNode("product", nil)
	p2 := g.AddNode("product", nil)
	p3 := g.AddNode("product", nil)
	g.AddEdge(s1, p1)
	g.AddEdge(s1, p2)
	g.AddEdge(s2, p3)
	q, err := ParseQuery(`
node s label=store output
node p label=product parent=s edge=pc output`)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := NewEngine(g).EvalGrouped(q, "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 2 {
		t.Fatalf("groups = %d", len(gr.Groups))
	}
	if len(gr.Groups[0].Members) != 2 || len(gr.Groups[1].Members) != 1 {
		t.Fatalf("member counts wrong: %+v", gr.Groups)
	}
	if gr.KeyColumns[0] != "s" || gr.MemberColumns[0] != "p" {
		t.Errorf("columns: %v / %v", gr.KeyColumns, gr.MemberColumns)
	}
	if _, err := NewEngine(g).EvalGrouped(q, "zzz"); err == nil {
		t.Error("unknown group node should error")
	}
}

func TestEvalRejectsInvalidQuery(t *testing.T) {
	g, _ := demoGraph()
	// Build an invalid query by hand: predicate output node.
	q, err := NewBuilder("x", "a").Filter("y", "b", "x", false).Build()
	if err != nil {
		t.Fatal(err)
	}
	q.Internal().Nodes[1].Output = true
	if _, err := NewEngine(g).Eval(q); err == nil {
		t.Error("Eval should reject invalid queries")
	}
}

func TestRefEdgesThroughAPI(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a", nil)
	r := g.AddNode("ref", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a, r)
	g.AddRefEdge(r, b)
	q, err := ParseQuery(`
node x label=a
node re label=ref parent=x edge=pc
node y label=b parent=re edge=pc ref output`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(g).Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != b {
		t.Fatalf("rows = %v", res.Rows)
	}
	_ = a
}

func TestEngineOptionsBackends(t *testing.T) {
	g, ids := demoGraph()
	q, err := ParseQuery(`
node x label=a output
pnode y label=c parent=x edge=ad
pred x: y`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := IndexKinds()
	if len(kinds) < 2 {
		t.Fatalf("IndexKinds() = %v, want at least two backends", kinds)
	}
	for _, kind := range kinds {
		e, err := NewEngineWithOptions(g, EngineOptions{Index: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if e.IndexKind() != kind {
			t.Errorf("IndexKind() = %q, want %q", e.IndexKind(), kind)
		}
		res, err := e.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != ids[0] {
			t.Fatalf("%s: rows = %v, want [[a0]]", kind, res.Rows)
		}
	}
	if _, err := NewEngineWithOptions(g, EngineOptions{Index: "bogus"}); err == nil {
		t.Fatal("expected an error for an unknown index kind")
	}
}

func TestEngineConcurrentEvalPublicAPI(t *testing.T) {
	g, ids := demoGraph()
	q, err := ParseQuery(`
node x label=a output
pnode y label=c parent=x edge=ad
pred x: y`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g)
	var wg sync.WaitGroup
	bad := make(chan string, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Eval(q)
			if err != nil {
				bad <- err.Error()
				return
			}
			if len(res.Rows) != 1 || res.Rows[0][0] != ids[0] {
				bad <- "wrong rows under concurrency"
			}
		}()
	}
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Fatal(msg)
	}
}

// TestEvalDefaultsOutputsToRoot checks the output default is applied
// uniformly: a query that reaches Eval with no outputs (possible via
// WrapQuery or a hand-built core query) returns its root, exactly as
// Builder.Build and ParseQuery default — and the shared query itself
// is not mutated.
func TestEvalDefaultsOutputsToRoot(t *testing.T) {
	g, ids := demoGraph()
	q, err := NewBuilder("x", "a").Filter("y", "c", "x", false).Predicate("x", "y").Build()
	if err != nil {
		t.Fatal(err)
	}
	// Strip the outputs Build defaulted, simulating WrapQuery callers.
	for _, n := range q.Internal().Nodes {
		n.Output = false
	}
	res, err := NewEngine(g).Eval(q)
	if err != nil {
		t.Fatalf("Eval rejected a query with no outputs: %v", err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "x" {
		t.Fatalf("columns = %v, want [x]", res.Columns)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != ids[0] {
		t.Fatalf("rows = %v, want [[a0]]", res.Rows)
	}
	if len(q.Internal().Outputs()) != 0 {
		t.Fatal("Eval mutated the caller's query")
	}
}

// TestEvalCtxPublicAPI checks context plumbing through the public
// Engine: a cancelled context aborts with its error.
func TestEvalCtxPublicAPI(t *testing.T) {
	g, _ := demoGraph()
	q, err := ParseQuery("node x label=a output")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g)
	ctx, cancel := context.WithCancel(context.Background())
	if res, err := e.EvalCtx(ctx, q); err != nil || len(res.Rows) != 2 {
		t.Fatalf("live ctx: res=%v err=%v", res, err)
	}
	cancel()
	if _, err := e.EvalCtx(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err=%v, want context.Canceled", err)
	}
}

// TestSnapshotPublicAPI round-trips an engine through the exported
// SaveSnapshot/LoadSnapshot pair.
func TestSnapshotPublicAPI(t *testing.T) {
	g, ids := demoGraph()
	q, err := ParseQuery(`
node x label=a output
pnode y label=c parent=x edge=ad
pred x: y`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g)
	var buf bytes.Buffer
	if err := e.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if e2.IndexKind() != e.IndexKind() {
		t.Fatalf("kind %q != %q", e2.IndexKind(), e.IndexKind())
	}
	if e2.Graph().N() != g.N() || e2.Graph().M() != g.M() {
		t.Fatalf("graph shape changed: %d/%d", e2.Graph().N(), e2.Graph().M())
	}
	res, err := e2.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != ids[0] {
		t.Fatalf("rows after snapshot = %v", res.Rows)
	}
}

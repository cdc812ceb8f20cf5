package gtea

import (
	"math/rand"
	"strings"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/delta"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/logic"
	"gtpq/internal/reach"
	"gtpq/internal/xmark"
)

var planTestLabels = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

// planTestGraph is the Zipf-skewed forest the planner experiments use:
// label "a" covers roughly half the vertices, the tail is rare.
func planTestGraph() *graph.Graph {
	return gen.ZipfForest(rand.New(rand.NewSource(46)), 16, 160, 360, planTestLabels)
}

// starQuery is the headline planner shape: a hot-label root constrained
// by three rare-label AD predicate children.
func starQuery() *core.Query {
	q := core.NewQuery()
	x := q.AddRoot("x", core.Label("a"))
	p := q.AddNode("p", core.Predicate, x, core.AD, core.Label("f"))
	s := q.AddNode("s", core.Predicate, x, core.AD, core.Label("g"))
	u := q.AddNode("u", core.Predicate, x, core.AD, core.Label("h"))
	q.SetStruct(x, logic.And(logic.Var(p), logic.Var(s), logic.Var(u)))
	q.SetOutput(x)
	return q
}

// TestPlanRecordsEstimatesAndKernels pins what the plan reports on the
// skewed star, and on the star with its root's predicate negated, over
// every backend, flat and under a delta overlay: estimates equal the
// label frequencies, and the kernel rule runs the multiway kernel at
// the hot root except over the transitive closure, whatever the shape
// of the root's fext.
func TestPlanRecordsEstimatesAndKernels(t *testing.T) {
	base := planTestGraph()
	batches := []delta.Batch{overlayBatch(base)}
	ext, err := delta.Extend(base, batches)
	if err != nil {
		t.Fatal(err)
	}
	neg := starQuery()
	neg.SetStruct(neg.Root, logic.Not(neg.Nodes[neg.Root].Struct))
	for _, c := range []struct {
		kind, root string
	}{
		{"threehop", KernelMultiway},
		{"tc", KernelPaper},
		{delta.KindPrefix + "threehop", KernelMultiway},
		{delta.KindPrefix + "tc", KernelPaper},
	} {
		t.Run(c.kind, func(t *testing.T) {
			baseKind, overlay := strings.CutPrefix(c.kind, delta.KindPrefix)
			h, err := reach.Build(baseKind, base)
			if err != nil {
				t.Fatal(err)
			}
			g := base
			if overlay {
				g, h = ext, delta.NewOverlay(h, base.N(), ext.N(), batches)
			}
			if h.Kind() != c.kind {
				t.Fatalf("index kind %q, want %q", h.Kind(), c.kind)
			}
			for _, tq := range []struct {
				name string
				q    *core.Query
			}{{"star", starQuery()}, {"neg", neg}} {
				q := tq.q
				t.Run(tq.name, func(t *testing.T) {
					ans, st := NewWithIndex(g, h, Options{}).EvalStats(q)
					if st.Plan == nil {
						t.Fatal("no plan recorded")
					}
					for u, pn := range st.Plan.Nodes {
						l, _ := q.Nodes[u].Attr.LabelOnly()
						if want := len(g.ByLabel(l)); pn.EstCands != want || pn.InitCands != want {
							t.Fatalf("node %d (%s): est=%d init=%d, label count %d", u, l, pn.EstCands, pn.InitCands, want)
						}
						if pn.FinalCands > pn.InitCands {
							t.Fatalf("node %d: final %d > init %d", u, pn.FinalCands, pn.InitCands)
						}
					}
					if k := st.Plan.Nodes[q.Root].Kernel; k != c.root {
						t.Fatalf("root kernel = %q, want %q", k, c.root)
					}
					if want := core.EvalNaive(g, reach.NewTC(g), q); !want.Equal(ans) {
						t.Fatalf("answer differs from the oracle's: want %v got %v", want, ans)
					}
				})
			}
		})
	}
}

// TestPlanPruningReadsNoIndex pins the single downward kernel of the
// planner: over random cyclic and acyclic graphs and random queries
// with PC edges, negation and disjunction, every internal node prunes
// by bitset contours on the 3-hop index, flat and under a delta
// overlay, whatever the shape of its fext. With the root as the only
// output the prime subtree is the root alone, so neither the upward
// round nor the matching graph has an edge to probe, and the whole
// evaluation reads no index entry. Over the transitive closure every
// node keeps the paper kernel. Every answer is the oracle's.
func TestPlanPruningReadsNoIndex(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	labels := planTestLabels[:4]
	for trial := 0; trial < 24; trial++ {
		base := gen.Graph(r, 30+r.Intn(40), 40+r.Intn(120), labels, trial%2 == 0)
		batches := []delta.Batch{overlayBatch(base)}
		ext, err := delta.Extend(base, batches)
		if err != nil {
			t.Fatal(err)
		}
		q := gen.Query(r, 2+r.Intn(6), labels, true, true)
		for _, n := range q.Nodes {
			n.Output = false
		}
		q.SetOutput(q.Root)
		for _, c := range []struct {
			kind, kernel string
			noIndex      bool
		}{
			{"threehop", KernelMultiway, true},
			{delta.KindPrefix + "threehop", KernelMultiway, true},
			{"tc", KernelPaper, false},
		} {
			baseKind, overlay := strings.CutPrefix(c.kind, delta.KindPrefix)
			h, err := reach.Build(baseKind, base)
			if err != nil {
				t.Fatal(err)
			}
			g := base
			if overlay {
				g, h = ext, delta.NewOverlay(h, base.N(), ext.N(), batches)
			}
			ans, st := NewWithIndex(g, h, Options{}).EvalStats(q)
			if c.noIndex && st.Index != 0 {
				t.Errorf("trial %d %s: %d index lookups, want none\n%s", trial, c.kind, st.Index, q)
			}
			for u, n := range q.Nodes {
				if k := st.Plan.Nodes[u].Kernel; len(n.Children) > 0 && k != c.kernel {
					t.Errorf("trial %d %s: node %d kernel %q, want %q\n%s", trial, c.kind, u, k, c.kernel, q)
				}
			}
			if want := core.EvalNaive(g, reach.NewTC(g), q); !want.Equal(ans) {
				t.Fatalf("trial %d %s: answer differs from the oracle's\n%s\nwant %v\ngot  %v", trial, c.kind, q, want, ans)
			}
		}
	}
}

// TestNoPlanRestoresPaperBehavior checks the escape hatch: with NoPlan
// no plan is recorded, and answers are byte-identical either way, and
// the oracle's.
func TestNoPlanRestoresPaperBehavior(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	g := planTestGraph()
	tc := reach.NewTC(g)
	on := New(g)
	off, err := NewWithOptions(g, Options{NoPlan: true})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		q := gen.Query(r, 2+r.Intn(5), planTestLabels, true, true)
		want, stOff := off.EvalStats(q)
		got, stOn := on.EvalStats(q)
		if stOff.Plan != nil {
			t.Fatalf("trial %d: NoPlan recorded a plan", trial)
		}
		if stOn.Plan == nil {
			t.Fatalf("trial %d: planner on recorded no plan", trial)
		}
		if !want.Equal(got) {
			t.Fatalf("trial %d: answers differ\n%s\nwant %v\ngot  %v", trial, q, want, got)
		}
		if oracle := core.EvalNaive(g, tc, q); !oracle.Equal(want) {
			t.Fatalf("trial %d: answers differ from the oracle's\n%s\nwant %v\ngot  %v", trial, q, oracle, want)
		}
	}
}

// TestPlanNegationRunsMultiway pins the one downward kernel: a node
// whose extension formula negates an AD child runs the multiway kernel
// like any other, reads no index entry, and answers as the oracle does.
func TestPlanNegationRunsMultiway(t *testing.T) {
	g := planTestGraph()
	q := core.NewQuery()
	x := q.AddRoot("x", core.Label("a"))
	p := q.AddNode("p", core.Predicate, x, core.AD, core.Label("g"))
	q.SetStruct(x, logic.Not(logic.Var(p)))
	q.SetOutput(x)
	e := New(g)
	ans, st := e.EvalStats(q)
	if st.Plan == nil {
		t.Fatal("no plan recorded")
	}
	if k := st.Plan.Nodes[x].Kernel; k != KernelMultiway {
		t.Fatalf("negated node kernel = %q, want multiway", k)
	}
	if st.Index != 0 {
		t.Fatalf("negated node read %d index entries, want none", st.Index)
	}
	if want := core.EvalNaive(g, reach.NewTC(g), q); !want.Equal(ans) {
		t.Fatalf("multiway negation changed the answer: want %v got %v", want, ans)
	}
}

// TestPlanFalsePredicateIsEmpty pins an unsatisfiable fext under the
// kernel rule: a node whose structural predicate is false keeps no
// candidate, whatever its children's contours hold, although False has
// no variable to fill a contour for.
func TestPlanFalsePredicateIsEmpty(t *testing.T) {
	g, _ := xmark.Generate(xmark.Config{Scale: 0.5, PersonsPerUnit: 200, Seed: 7})
	q := core.NewQuery()
	x := q.AddRoot("x", core.Label("open_auction"))
	q.AddNode("y", core.Predicate, x, core.PC, core.Label("bidder"))
	q.SetStruct(x, logic.False())
	q.SetOutput(x)
	want := core.EvalNaive(g, reach.NewTC(g), q)
	if want.Len() != 0 {
		t.Fatalf("oracle answered %d rows for a false predicate", want.Len())
	}
	for _, kind := range reach.Kinds() {
		for _, noPlan := range []bool{false, true} {
			e, err := NewWithOptions(g, Options{Index: kind, NoPlan: noPlan})
			if err != nil {
				t.Fatal(err)
			}
			if got := e.Eval(q); !want.Equal(got) {
				t.Fatalf("%s noPlan=%v: %d rows, want none", kind, noPlan, got.Len())
			}
		}
	}
}

// TestStatsInputSplit checks the counter invariant the split
// introduced: Input is always PruneInput + EnumInput, with both sides
// populated on a pruning + enumerating workload.
func TestStatsInputSplit(t *testing.T) {
	g := planTestGraph()
	for _, noPlan := range []bool{false, true} {
		e, err := NewWithOptions(g, Options{NoPlan: noPlan})
		if err != nil {
			t.Fatal(err)
		}
		q := core.NewQuery()
		x := q.AddRoot("x", core.Label("a"))
		q.AddNode("y", core.Backbone, x, core.AD, core.Label("d"))
		q.SetOutput(0)
		q.SetOutput(1)
		_, st := e.EvalStats(q)
		if st.PruneInput == 0 || st.EnumInput == 0 {
			t.Fatalf("noPlan=%v: PruneInput=%d EnumInput=%d, want both > 0", noPlan, st.PruneInput, st.EnumInput)
		}
		if st.Input != st.PruneInput+st.EnumInput {
			t.Fatalf("noPlan=%v: Input=%d != PruneInput+EnumInput=%d", noPlan, st.Input, st.PruneInput+st.EnumInput)
		}
	}
}

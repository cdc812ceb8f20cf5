package bench

import (
	"io"
	"math/rand"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/decomp"
	"gtpq/internal/gtea"
	"gtpq/internal/queries"
	"gtpq/internal/reach"
	"gtpq/internal/twigstack"
	"gtpq/internal/twigstackd"
)

// TestBenchmarkedEnginesAgree re-runs the exact workloads the
// experiments time and checks every engine produces identical answers —
// the timing comparisons are only meaningful if everyone computes the
// same thing.
func TestBenchmarkedEnginesAgree(t *testing.T) {
	r := NewRunner(tinyConfig(), io.Discard)
	g, _ := r.XMark(1)
	es := r.engines(g)

	for i := 0; i < 3; i++ {
		for name, build := range map[string]func(*rand.Rand) *core.Query{
			"Q1": queries.XMarkQ1, "Q2": queries.XMarkQ2, "Q3": queries.XMarkQ3,
		} {
			q := build(rand.New(rand.NewSource(int64(i))))
			want := es.gtea.Eval(q)
			if got := es.twigStack.Eval(q); !want.Equal(got) {
				t.Fatalf("%s #%d: twigstack disagrees with gtea", name, i)
			}
			if got := es.twig2Stack.Eval(q); !want.Equal(got) {
				t.Fatalf("%s #%d: twig2stack disagrees with gtea", name, i)
			}
			if got := es.twigStackD.Eval(q); !want.Equal(got) {
				t.Fatalf("%s #%d: twigstackd disagrees with gtea", name, i)
			}
			if got := es.hgJoin.EvalPlus(q); !want.Equal(got) {
				t.Fatalf("%s #%d: hgjoin+ disagrees with gtea", name, i)
			}
			if got := es.hgJoin.EvalStar(q); !want.Equal(got) {
				t.Fatalf("%s #%d: hgjoin* disagrees with gtea", name, i)
			}
		}
	}
}

// TestExp2EnginesAgree checks the Table 4 GTPQ timing comparison
// operands: GTEA vs both decomposition wrappers.
func TestExp2EnginesAgree(t *testing.T) {
	r := NewRunner(tinyConfig(), io.Discard)
	g, _ := r.XMark(1)
	ge := r.GTEA(g)
	tsWrap := decomp.New(g, twigstack.New(g), ge.H)
	tdWrap := decomp.New(g, twigstackd.New(g), ge.H)
	for _, spec := range queries.Exp2Specs {
		q, err := queries.NewExp2(rand.New(rand.NewSource(1)), spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		want := ge.Eval(q)
		if got := tsWrap.Eval(q); !want.Equal(got) {
			t.Fatalf("%s: decomp(twigstack) disagrees: %d vs %d rows",
				spec.Name, want.Len(), got.Len())
		}
		if got := tdWrap.Eval(q); !want.Equal(got) {
			t.Fatalf("%s: decomp(twigstackd) disagrees: %d vs %d rows",
				spec.Name, want.Len(), got.Len())
		}
	}
}

// TestIndexBackendsAgree checks the IndexBackends experiment operands:
// every registered reachability backend must drive GTEA to identical
// answers on the benchmarked XMark workload.
func TestIndexBackendsAgree(t *testing.T) {
	r := NewRunner(tinyConfig(), io.Discard)
	g, _ := r.XMark(1)
	base := r.GTEA(g)
	for _, kind := range reach.Kinds() {
		e, err := gtea.NewWithOptions(g, gtea.Options{Index: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i := 0; i < 3; i++ {
			for name, build := range map[string]func(*rand.Rand) *core.Query{
				"Q1": queries.XMarkQ1, "Q2": queries.XMarkQ2, "Q3": queries.XMarkQ3,
			} {
				q := build(rand.New(rand.NewSource(int64(i))))
				want := base.Eval(q)
				if got := e.Eval(q); !want.Equal(got) {
					t.Fatalf("%s #%d: backend %q disagrees with default", name, i, kind)
				}
			}
		}
	}
}

// TestAblationVariantsAgree ensures the timed ablation configurations
// return identical answers on the arXiv workload.
func TestAblationVariantsAgree(t *testing.T) {
	cfg := tinyConfig()
	r := NewRunner(cfg, io.Discard)
	w := r.buildArxivWorkload()
	g, _ := r.Arxiv()
	base := r.GTEA(g)
	for _, opts := range []struct {
		name       string
		noContours bool
		noShrink   bool
	}{{"nocontours", true, false}, {"noshrink", false, true}} {
		// Share the built index but not the engine itself (it carries a
		// sync.Pool of evaluation contexts and must not be copied).
		variant := gtea.NewWithIndex(g, base.H, base.Opt)
		variant.Opt.NoContours = opts.noContours
		variant.Opt.NoShrink = opts.noShrink
		for _, s := range w.sizes {
			for _, q := range append(w.small[s], w.large[s]...) {
				want := base.Eval(q)
				if got := variant.Eval(q); !want.Equal(got) {
					t.Fatalf("%s: ablation changed answers (size %d)", opts.name, s)
				}
			}
		}
	}
}

package bench

import (
	"math/rand"
	"strings"
	"time"

	"gtpq/internal/core"
	"gtpq/internal/decomp"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/hgjoin"
	"gtpq/internal/queries"
	"gtpq/internal/twig2stack"
	"gtpq/internal/twigstack"
	"gtpq/internal/twigstackd"
)

func hgjoinOn(r *Runner, g *graph.Graph) *hgjoin.Engine {
	return hgjoin.NewWithIndex(g, r.GTEA(g).H)
}

func twig2stackOn(g *graph.Graph) *twig2stack.Engine {
	return twig2stack.New(g)
}

// Fig10 prints the I/O-cost metrics (#input, #intermediate, #index) on
// the middle XMark scale. The paper uses Q3; at our reduced data sizes
// Q3's three independent group-label constraints leave it with (near-)
// empty answers, which degenerates the intermediate-result comparison,
// so Q1 is measured instead (same structure, fewer reference hops).
func (r *Runner) Fig10() {
	scale := r.Cfg.Scales[len(r.Cfg.Scales)/2]
	g, _ := r.XMark(scale)
	q := queries.XMarkQ1(rand.New(rand.NewSource(r.Cfg.Seed)))

	r.printf("== Fig 10: I/O cost for Q1 on XMark scale %.1f ==\n", scale)
	r.printf("%-12s %14s %14s %14s\n", "engine", "#input", "#intermediate", "#index")

	ge := r.GTEA(g)
	_, gs := ge.EvalStats(q)
	r.printf("%-12s %14d %14d %14d\n", "GTEA", gs.Input, gs.Intermediate, gs.Index)

	he := hgjoinOn(r, g)
	he.EvalPlus(q)
	hs := he.Stats()
	r.printf("%-12s %14d %14d %14d\n", "HGJoin+", hs.Input, hs.Intermediate, hs.Index)

	td := twigstackd.New(g)
	td.Eval(q)
	ts := td.Stats()
	r.printf("%-12s %14d %14d %14d\n", "TwigStackD", ts.Input, ts.Intermediate, ts.Index)

	tw := twigstack.New(g)
	tw.Eval(q)
	tws := tw.Stats()
	r.printf("%-12s %14d %14d %14d\n", "TwigStack", tws.Input, tws.Intermediate, 0)

	// Twig2Stack shares TwigStack's input/index profile in the paper's
	// figure; report its own counters.
	t2 := twig2stackOn(g)
	t2.Eval(q)
	t2s := t2.Stats()
	r.printf("%-12s %14d %14d %14d\n", "Twig2Stack", t2s.Input, t2s.Intermediate, 0)
}

// Exp1 prints GTEA's evaluation time for the Fig 11 query under the
// Table 3 output-node variants (Fig 12(a)), plus result counts
// (Table 5).
func (r *Runner) Exp1() {
	scale := r.Cfg.Scales[len(r.Cfg.Scales)-1]
	g, _ := r.XMark(scale)
	e := r.GTEA(g)
	r.printf("== Exp-1 / Fig 12(a): output-node optimization, XMark scale %.1f ==\n", scale)
	r.printf("%-6s %12s %10s\n", "query", "GTEA", "#results")
	for _, name := range []string{"Q4", "Q5", "Q6", "Q7", "Q8"} {
		var total time.Duration
		results := 0
		for i := 0; i < r.Cfg.QueriesPerPoint; i++ {
			q, err := queries.NewExp1(rand.New(rand.NewSource(r.Cfg.Seed+int64(i))), name)
			if err != nil {
				panic(err)
			}
			var ans *core.Answer
			total += timeIt(func() { ans = e.Eval(q) })
			results += ans.Len()
		}
		r.printf("%-6s %12s %10d\n", name,
			fmtDur(total/time.Duration(r.Cfg.QueriesPerPoint)),
			results/r.Cfg.QueriesPerPoint)
	}
}

// Exp2 prints GTEA vs decompose-and-merge TwigStack / TwigStackD for
// the Table 4 GTPQs (Fig 12(b)–(d)) of the named class ("DIS", "NEG" or
// "DIS_NEG": a spec's name is its class plus a number), plus result
// counts (Table 5).
func (r *Runner) Exp2(class string) {
	scale := r.Cfg.Scales[len(r.Cfg.Scales)-1]
	g, _ := r.XMark(scale)
	ge := r.GTEA(g)
	tsWrap := decomp.New(g, twigstack.New(g), ge.H)
	tdWrap := decomp.New(g, twigstackd.New(g), ge.H)

	r.printf("== Exp-2 / Fig 12(b-d): GTPQ processing (%s), XMark scale %.1f ==\n", class, scale)
	r.printf("%-10s %12s %14s %14s %10s %6s\n", "query", "GTEA", "TwigStack+dec", "TwigStackD+dec", "#results", "#subq")
	for _, spec := range queries.Exp2Specs {
		if strings.TrimRight(spec.Name, "0123456789") != class {
			continue
		}
		q, err := queries.NewExp2(rand.New(rand.NewSource(r.Cfg.Seed)), spec)
		if err != nil {
			panic(err)
		}
		var ans *core.Answer
		gt := timeIt(func() { ans = ge.Eval(q) })
		tt := timeIt(func() { tsWrap.Eval(q) })
		dt := timeIt(func() { tdWrap.Eval(q) })
		r.printf("%-10s %12s %14s %14s %10d %6d\n", spec.Name,
			fmtDur(gt), fmtDur(tt), fmtDur(dt), ans.Len(), tsWrap.Subqueries)
	}
}

// AblationContours compares GTEA with and without contour merging on
// the arXiv workload (ablation A2 in README "Benchmarks").
func (r *Runner) AblationContours() {
	w := r.buildArxivWorkload()
	g, _ := r.Arxiv()
	withC := r.GTEA(g)
	withoutC := gtea.NewWithIndex(g, withC.H, gtea.Options{NoContours: true})
	r.printf("== Ablation A2: contour merging on/off (arXiv, small group) ==\n")
	r.printf("%-6s %14s %14s\n", "size", "contours", "pairwise")
	for _, s := range w.sizes {
		qs := w.small[s]
		if len(qs) == 0 {
			continue
		}
		var a, b time.Duration
		for _, q := range qs {
			a += timeIt(func() { withC.Eval(q) })
			b += timeIt(func() { withoutC.Eval(q) })
		}
		r.printf("%-6d %14s %14s\n", s,
			fmtDur(a/time.Duration(len(qs))), fmtDur(b/time.Duration(len(qs))))
	}
}

// AblationPrimeSubtree compares GTEA with and without the shrunk prime
// subtree on the Exp-1 queries (ablation A3 in README "Benchmarks").
func (r *Runner) AblationPrimeSubtree() {
	scale := r.Cfg.Scales[len(r.Cfg.Scales)-1]
	g, _ := r.XMark(scale)
	withS := r.GTEA(g)
	withoutS := gtea.NewWithIndex(g, withS.H, gtea.Options{NoShrink: true})
	r.printf("== Ablation A3: shrunk prime subtree on/off (XMark scale %.1f) ==\n", scale)
	r.printf("%-6s %14s %14s\n", "query", "shrunk", "full-prime")
	for _, name := range []string{"Q4", "Q5", "Q6", "Q7", "Q8"} {
		q, err := queries.NewExp1(rand.New(rand.NewSource(r.Cfg.Seed)), name)
		if err != nil {
			panic(err)
		}
		a := timeIt(func() { withS.Eval(q) })
		b := timeIt(func() { withoutS.Eval(q) })
		r.printf("%-6s %14s %14s\n", name, fmtDur(a), fmtDur(b))
	}
}

// Experiment is one paper artifact: the name it is selected by
// (BenchmarkPaper/<Name> in the root bench_test.go), the text its
// printed section heading starts with, and the Runner method that
// prints it.
type Experiment struct {
	Name    string
	Section string
	Run     func(*Runner)
}

// Experiments lists every artifact, in the paper's order.
var Experiments = []Experiment{
	{"t1", "Table 1", (*Runner).Table1},
	{"t2", "Table 2", (*Runner).Table2},
	{"f8a", "Fig 8(a)", (*Runner).Fig8a},
	{"f8b", "Fig 8(b)", (*Runner).Fig8b},
	{"f9a", "Fig 9(a)", (*Runner).Fig9a},
	{"f9b", "Fig 9(b)", (*Runner).Fig9b},
	{"f9c", "Fig 9(c)", (*Runner).Fig9c},
	{"f9d", "Fig 9(d)", (*Runner).Fig9d},
	{"f10", "Fig 10", (*Runner).Fig10},
	{"e1", "Exp-1", (*Runner).Exp1},
	{"e2dis", "Exp-2", func(r *Runner) { r.Exp2("DIS") }},
	{"e2neg", "Exp-2", func(r *Runner) { r.Exp2("NEG") }},
	{"e2disneg", "Exp-2", func(r *Runner) { r.Exp2("DIS_NEG") }},
	{"a2", "Ablation A2", (*Runner).AblationContours},
	{"a3", "Ablation A3", (*Runner).AblationPrimeSubtree},
	{"ix", "Index backends", (*Runner).IndexBackends},
	{"conc", "Concurrency", (*Runner).Concurrency},
}

// All runs every experiment in order.
func (r *Runner) All() {
	for i, e := range Experiments {
		if i > 0 {
			r.printf("\n")
		}
		e.Run(r)
	}
}

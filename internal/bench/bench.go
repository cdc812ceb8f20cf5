// Package bench regenerates every table and figure of the paper's
// evaluation (§5 and Appendix C): the same rows and series, on
// synthetic XMark/arXiv data sized for a single machine. Absolute times
// differ from the paper; the shapes — who wins, rough factors,
// crossovers — are the reproduction target (see README "Benchmarks").
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"gtpq/internal/arxiv"
	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/hgjoin"
	"gtpq/internal/queries"
	"gtpq/internal/twig2stack"
	"gtpq/internal/twigstack"
	"gtpq/internal/twigstackd"
	"gtpq/internal/xmark"
)

// Config sizes the experiments. Zero values take small defaults; the
// root bench_test.go sets the sizes from its flags.
type Config struct {
	// PersonsPerUnit is the XMark person count at scale 1.
	PersonsPerUnit int
	// Scales are the Table 1 scaling factors.
	Scales []float64
	// QueriesPerPoint is how many label-randomized query instances are
	// averaged per data point (the paper uses 10).
	QueriesPerPoint int
	// ArxivPerSize is how many random queries are kept per query size
	// and result-size group (the paper uses 15).
	ArxivPerSize int
	// Seed drives workload randomization.
	Seed int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.PersonsPerUnit == 0 {
		c.PersonsPerUnit = 250
	}
	if len(c.Scales) == 0 {
		c.Scales = []float64{0.5, 1, 1.5, 2, 4}
	}
	if c.QueriesPerPoint == 0 {
		c.QueriesPerPoint = 5
	}
	if c.ArxivPerSize == 0 {
		c.ArxivPerSize = 4
	}
	if c.Seed == 0 {
		c.Seed = 17
	}
	return c
}

// Runner caches generated graphs and engines across experiments.
type Runner struct {
	Cfg Config
	W   io.Writer

	xmarkGraphs map[float64]*graph.Graph
	xmarkStats  map[float64]xmark.Stats
	arxivGraph  *graph.Graph
	arxivStats  arxiv.Stats

	gteaEngines map[*graph.Graph]*gtea.Engine
	hgjoinArxiv *hgjoin.Engine
	tsdArxiv    *twigstackd.Engine
	workload    *arxivWorkload
}

// NewRunner builds a runner writing reports to w.
func NewRunner(cfg Config, w io.Writer) *Runner {
	return &Runner{
		Cfg:         cfg.withDefaults(),
		W:           w,
		xmarkGraphs: map[float64]*graph.Graph{},
		xmarkStats:  map[float64]xmark.Stats{},
		gteaEngines: map[*graph.Graph]*gtea.Engine{},
	}
}

// XMark returns (cached) the graph for a scale.
func (r *Runner) XMark(scale float64) (*graph.Graph, xmark.Stats) {
	if g, ok := r.xmarkGraphs[scale]; ok {
		return g, r.xmarkStats[scale]
	}
	g, st := xmark.Generate(xmark.Config{Scale: scale, PersonsPerUnit: r.Cfg.PersonsPerUnit, Seed: 7})
	r.xmarkGraphs[scale] = g
	r.xmarkStats[scale] = st
	return g, st
}

// Arxiv returns the (cached) citation graph.
func (r *Runner) Arxiv() (*graph.Graph, arxiv.Stats) {
	if r.arxivGraph == nil {
		r.arxivGraph, r.arxivStats = arxiv.Generate(arxiv.DefaultConfig())
	}
	return r.arxivGraph, r.arxivStats
}

// GTEA returns a cached engine (its 3-hop index is built once).
func (r *Runner) GTEA(g *graph.Graph) *gtea.Engine {
	if e, ok := r.gteaEngines[g]; ok {
		return e
	}
	e := gtea.New(g)
	r.gteaEngines[g] = e
	return e
}

func (r *Runner) printf(format string, args ...interface{}) {
	fmt.Fprintf(r.W, format, args...)
}

// timeIt runs f and returns elapsed time.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// Table1 prints the XMark dataset statistics (Table 1's shape).
func (r *Runner) Table1() {
	r.printf("== Table 1: statistics of XMark datasets ==\n")
	r.printf("%-8s %10s %10s %10s %10s\n", "scale", "nodes", "edges", "persons", "items")
	for _, s := range r.Cfg.Scales {
		_, st := r.XMark(s)
		r.printf("%-8.1f %10d %10d %10d %10d\n", s, st.Nodes, st.Edges, st.Persons, st.Items)
	}
}

// Table2 prints the average result sizes of Q1–Q3 per scale.
func (r *Runner) Table2() {
	r.printf("== Table 2: average result sizes of Q1-Q3 on XMark ==\n")
	r.printf("%-8s", "query")
	for _, s := range r.Cfg.Scales {
		r.printf(" %12s", fmt.Sprintf("scale %.1f", s))
	}
	r.printf("\n")
	builders := []struct {
		name  string
		build func(*rand.Rand) *core.Query
	}{{"Q1", queries.XMarkQ1}, {"Q2", queries.XMarkQ2}, {"Q3", queries.XMarkQ3}}
	for _, b := range builders {
		r.printf("%-8s", b.name)
		for _, s := range r.Cfg.Scales {
			g, _ := r.XMark(s)
			e := r.GTEA(g)
			total := 0
			for i := 0; i < r.Cfg.QueriesPerPoint; i++ {
				q := b.build(rand.New(rand.NewSource(r.Cfg.Seed + int64(i))))
				total += e.Eval(q).Len()
			}
			r.printf(" %12.1f", float64(total)/float64(r.Cfg.QueriesPerPoint))
		}
		r.printf("\n")
	}
}

// engineSet lists the §5.1 competitors over one XMark graph.
type engineSet struct {
	gtea       *gtea.Engine
	twigStackD *twigstackd.Engine
	hgJoin     *hgjoin.Engine
	twigStack  *twigstack.Engine
	twig2Stack *twig2stack.Engine
}

func (r *Runner) engines(g *graph.Graph) engineSet {
	return engineSet{
		gtea:       r.GTEA(g),
		twigStackD: twigstackd.New(g),
		hgJoin:     hgjoin.NewWithIndex(g, r.GTEA(g).H),
		twigStack:  twigstack.New(g),
		twig2Stack: twig2stack.New(g),
	}
}

// evalAll returns average evaluation times per engine for a query
// builder on g.
func (r *Runner) evalAll(g *graph.Graph, build func(*rand.Rand) *core.Query) map[string]time.Duration {
	es := r.engines(g)
	sums := map[string]time.Duration{}
	for i := 0; i < r.Cfg.QueriesPerPoint; i++ {
		q := build(rand.New(rand.NewSource(r.Cfg.Seed + int64(i))))
		sums["GTEA"] += timeIt(func() { es.gtea.Eval(q) })
		sums["TwigStackD"] += timeIt(func() { es.twigStackD.Eval(q) })
		sums["HGJoin+"] += timeIt(func() { es.hgJoin.EvalPlus(q) })
		sums["TwigStack"] += timeIt(func() { es.twigStack.Eval(q) })
		sums["Twig2Stack"] += timeIt(func() { es.twig2Stack.Eval(q) })
	}
	for k := range sums {
		sums[k] /= time.Duration(r.Cfg.QueriesPerPoint)
	}
	return sums
}

var fig8Engines = []string{"GTEA", "TwigStackD", "HGJoin+", "TwigStack", "Twig2Stack"}

// Fig8a prints query time for Q1 over the data-size sweep.
func (r *Runner) Fig8a() {
	r.printf("== Fig 8(a): Q1 evaluation time varying data size ==\n")
	r.printf("%-10s", "scale")
	for _, e := range fig8Engines {
		r.printf(" %12s", e)
	}
	r.printf("\n")
	for _, s := range r.Cfg.Scales {
		g, _ := r.XMark(s)
		times := r.evalAll(g, queries.XMarkQ1)
		r.printf("%-10.1f", s)
		for _, e := range fig8Engines {
			r.printf(" %12s", fmtDur(times[e]))
		}
		r.printf("\n")
	}
}

// Fig8b prints query time for Q1–Q3 on the smallest scale.
func (r *Runner) Fig8b() {
	s := r.Cfg.Scales[0]
	r.printf("== Fig 8(b): evaluation time varying query, XMark scale %.1f ==\n", s)
	r.printf("%-10s", "query")
	for _, e := range fig8Engines {
		r.printf(" %12s", e)
	}
	r.printf("\n")
	g, _ := r.XMark(s)
	for _, b := range []struct {
		name  string
		build func(*rand.Rand) *core.Query
	}{{"Q1", queries.XMarkQ1}, {"Q2", queries.XMarkQ2}, {"Q3", queries.XMarkQ3}} {
		times := r.evalAll(g, b.build)
		r.printf("%-10s", b.name)
		for _, e := range fig8Engines {
			r.printf(" %12s", fmtDur(times[e]))
		}
		r.printf("\n")
	}
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

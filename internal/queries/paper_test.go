package queries

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gtpq/internal/arxiv"
	"gtpq/internal/core"
	"gtpq/internal/decomp"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/hgjoin"
	"gtpq/internal/reach"
	"gtpq/internal/twig2stack"
	"gtpq/internal/twigstack"
	"gtpq/internal/twigstackd"
	"gtpq/internal/xmark"
)

// cost is one evaluation's work in the paper's measures (Fig 10:
// #input, #intermediate, #index) and its result count. pruneInput and
// enumInput split GTEA's input into pruning (Fig 9(d)'s filtering
// cost) and enumeration; subqueries is the decompose-and-merge blow-up
// (Table 4). A decomposed evaluation's counters are the sums over its
// conjunctive subqueries.
type cost struct {
	results, input, intermediate, index, pruneInput, enumInput, subqueries int64
}

func (c *cost) add(d cost) {
	c.results += d.results
	c.input += d.input
	c.intermediate += d.intermediate
	c.index += d.index
	c.pruneInput += d.pruneInput
	c.enumInput += d.enumInput
}

// paperCostsGolden is the paper's evaluation at a reduced size: every
// (dataset, query, engine) of paperDatasets, evaluated once. GTEA runs
// the paper's algorithm (gtea.Options.NoPlan). A row moves only when
// the work an engine does moves.
var paperCostsGolden = []struct {
	data, query, engine string
	want                cost
}{
	{"xmark", "Q1", "GTEA", cost{7, 2877, 168, 1496, 2848, 29, 0}},
	{"xmark", "Q1", "GTEA-NoContours", cost{7, 2877, 168, 26461, 2848, 29, 0}},
	{"xmark", "Q1", "GTEA-NoShrink", cost{7, 2877, 168, 1496, 2848, 29, 0}},
	{"xmark", "Q1", "HGJoin+", cost{7, 1343, 344, 17638, 0, 0, 0}},
	{"xmark", "Q1", "HGJoin*", cost{7, 1343, 1954, 17638, 0, 0, 0}},
	{"xmark", "Q1", "TwigStackD", cost{7, 85349, 100, 30, 0, 0, 0}},
	{"xmark", "Q1", "TwigStack", cost{7, 1343, 1867, 0, 0, 0, 0}},
	{"xmark", "Q1", "Twig2Stack", cost{7, 11374, 2385, 0, 0, 0, 0}},
	{"xmark", "Q2", "GTEA", cost{1, 3854, 0, 1332, 3854, 0, 0}},
	{"xmark", "Q2", "GTEA-NoContours", cost{1, 3854, 0, 23358, 3854, 0, 0}},
	{"xmark", "Q2", "GTEA-NoShrink", cost{1, 3861, 42, 1338, 3854, 7, 0}},
	{"xmark", "Q2", "HGJoin+", cost{1, 1826, 566, 17638, 0, 0, 0}},
	{"xmark", "Q2", "HGJoin*", cost{1, 1826, 2416, 17638, 0, 0, 0}},
	{"xmark", "Q2", "TwigStackD", cost{1, 119438, 22, 0, 0, 0, 0}},
	{"xmark", "Q2", "TwigStack", cost{1, 1826, 2815, 0, 0, 0, 0}},
	{"xmark", "Q2", "Twig2Stack", cost{1, 17061, 3080, 0, 0, 0, 0}},
	{"xmark", "Q3", "GTEA", cost{0, 3804, 0, 698, 3804, 0, 0}},
	{"xmark", "Q3", "GTEA-NoContours", cost{0, 3804, 0, 22363, 3804, 0, 0}},
	{"xmark", "Q3", "GTEA-NoShrink", cost{0, 3804, 0, 698, 3804, 0, 0}},
	{"xmark", "Q3", "HGJoin+", cost{0, 2261, 440, 17638, 0, 0, 0}},
	{"xmark", "Q3", "HGJoin*", cost{0, 2261, 2874, 17638, 0, 0, 0}},
	{"xmark", "Q3", "TwigStackD", cost{0, 153549, 0, 0, 0, 0, 0}},
	{"xmark", "Q3", "TwigStack", cost{0, 2261, 3753, 0, 0, 0, 0}},
	{"xmark", "Q3", "Twig2Stack", cost{0, 22748, 3704, 0, 0, 0, 0}},
	{"xmark", "Q4", "GTEA", cost{10, 5134, 20, 2057, 5134, 0, 0}},
	{"xmark", "Q4", "GTEA-NoShrink", cost{10, 5134, 20, 2057, 5134, 0, 0}},
	{"xmark", "Q5", "GTEA", cost{11, 5353, 104, 2057, 5343, 10, 0}},
	{"xmark", "Q5", "GTEA-NoShrink", cost{11, 5353, 104, 2057, 5343, 10, 0}},
	{"xmark", "Q6", "GTEA", cost{11, 6051, 350, 2057, 5979, 72, 0}},
	{"xmark", "Q6", "GTEA-NoShrink", cost{11, 6051, 350, 2057, 5979, 72, 0}},
	{"xmark", "Q7", "GTEA", cost{10, 5565, 134, 2057, 5536, 29, 0}},
	{"xmark", "Q7", "GTEA-NoShrink", cost{10, 5565, 134, 2057, 5536, 29, 0}},
	{"xmark", "Q8", "GTEA", cost{15, 6758, 588, 5140, 6658, 100, 0}},
	{"xmark", "Q8", "GTEA-NoShrink", cost{15, 6758, 588, 5140, 6658, 100, 0}},
	{"xmark", "DIS1", "GTEA", cost{83, 5958, 1168, 18872, 5750, 208, 0}},
	{"xmark", "DIS1", "decomp(TwigStack)", cost{83, 3998, 7976, 0, 0, 0, 2}},
	{"xmark", "DIS1", "decomp(TwigStackD)", cost{83, 228123, 1654, 5077, 0, 0, 2}},
	{"xmark", "DIS2", "GTEA", cost{133, 5867, 1260, 2057, 5601, 266, 0}},
	{"xmark", "DIS2", "decomp(TwigStack)", cost{133, 7104, 13433, 0, 0, 0, 4}},
	{"xmark", "DIS2", "decomp(TwigStackD)", cost{133, 388337, 3831, 7803, 0, 0, 4}},
	{"xmark", "DIS3", "GTEA", cost{157, 5134, 314, 2057, 5134, 0, 0}},
	{"xmark", "DIS3", "decomp(TwigStack)", cost{157, 3276, 4674, 0, 0, 0, 3}},
	{"xmark", "DIS3", "decomp(TwigStackD)", cost{157, 177339, 2579, 8941, 0, 0, 3}},
	{"xmark", "NEG1", "GTEA", cost{41, 7051, 1298, 5782, 6813, 238, 0}},
	{"xmark", "NEG1", "decomp(TwigStack)", cost{41, 2894, 9024, 0, 0, 0, 2}},
	{"xmark", "NEG1", "decomp(TwigStackD)", cost{41, 159730, 1341, 1166, 0, 0, 2}},
	{"xmark", "NEG2", "GTEA", cost{24, 6269, 584, 4568, 6168, 101, 0}},
	{"xmark", "NEG2", "decomp(TwigStack)", cost{24, 2610, 5690, 0, 0, 0, 3}},
	{"xmark", "NEG2", "decomp(TwigStackD)", cost{24, 132002, 2746, 2812, 0, 0, 3}},
	{"xmark", "NEG3", "GTEA", cost{18, 5796, 274, 3830, 5750, 46, 0}},
	{"xmark", "NEG3", "decomp(TwigStack)", cost{18, 2610, 4803, 0, 0, 0, 4}},
	{"xmark", "NEG3", "decomp(TwigStackD)", cost{18, 126683, 3705, 6215, 0, 0, 4}},
	{"xmark", "DIS_NEG1", "GTEA", cost{85, 5958, 1172, 18659, 5750, 208, 0}},
	{"xmark", "DIS_NEG1", "decomp(TwigStack)", cost{85, 3714, 7734, 0, 0, 0, 4}},
	{"xmark", "DIS_NEG1", "decomp(TwigStackD)", cost{85, 194975, 3888, 9027, 0, 0, 4}},
	{"xmark", "DIS_NEG2", "GTEA", cost{70, 5934, 1056, 17503, 5750, 184, 0}},
	{"xmark", "DIS_NEG2", "decomp(TwigStack)", cost{70, 5788, 10182, 0, 0, 0, 4}},
	{"xmark", "DIS_NEG2", "decomp(TwigStackD)", cost{70, 319673, 2998, 7803, 0, 0, 4}},
	{"xmark", "DIS_NEG3", "GTEA", cost{60, 5904, 890, 13274, 5750, 154, 0}},
	{"xmark", "DIS_NEG3", "decomp(TwigStack)", cost{60, 5220, 13886, 0, 0, 0, 6}},
	{"xmark", "DIS_NEG3", "decomp(TwigStackD)", cost{60, 263881, 5921, 7320, 0, 0, 6}},
	{"xmark", "DIS_NEG4", "GTEA", cost{48, 5134, 96, 2057, 5134, 0, 0}},
	{"xmark", "DIS_NEG4", "decomp(TwigStack)", cost{48, 5220, 11137, 0, 0, 0, 7}},
	{"xmark", "DIS_NEG4", "decomp(TwigStackD)", cost{48, 258836, 7059, 10872, 0, 0, 7}},
	{"arxiv", "tpq5-small", "GTEA", cost{3, 260, 6, 7798, 260, 0, 0}},
	{"arxiv", "tpq5-small", "GTEA-NoContours", cost{3, 260, 6, 38174, 260, 0, 0}},
	{"arxiv", "tpq5-small", "HGJoin+", cost{3, 130, 37, 7802, 0, 0, 0}},
	{"arxiv", "tpq5-small", "HGJoin*", cost{3, 130, 12, 7802, 0, 0, 0}},
	{"arxiv", "tpq5-small", "TwigStackD", cost{3, 86065, 22, 998, 0, 0, 0}},
	{"arxiv", "tpq5-large", "GTEA", cost{361, 388, 76, 266977, 388, 0, 0}},
	{"arxiv", "tpq5-large", "GTEA-NoContours", cost{361, 388, 76, 2932862, 388, 0, 0}},
	{"arxiv", "tpq5-large", "HGJoin+", cost{361, 194, 1907, 4632876, 0, 0, 0}},
	{"arxiv", "tpq5-large", "HGJoin*", cost{361, 194, 7616, 4632876, 0, 0, 0}},
	{"arxiv", "tpq5-large", "TwigStackD", cost{361, 86099, 1846, 84736, 0, 0, 0}},
	{"arxiv", "tpq7-small", "GTEA", cost{2, 441, 4, 28870, 441, 0, 0}},
	{"arxiv", "tpq7-small", "GTEA-NoContours", cost{2, 441, 4, 584798, 441, 0, 0}},
	{"arxiv", "tpq7-small", "HGJoin+", cost{2, 220, 394, 638089, 0, 0, 0}},
	{"arxiv", "tpq7-small", "HGJoin*", cost{2, 220, 924, 638089, 0, 0, 0}},
	{"arxiv", "tpq7-small", "TwigStackD", cost{2, 124314, 22, 5619, 0, 0, 0}},
	{"arxiv", "tpq7-large", "GTEA", cost{295, 456, 128, 176434, 456, 0, 0}},
	{"arxiv", "tpq7-large", "GTEA-NoContours", cost{295, 456, 128, 236446, 456, 0, 0}},
	{"arxiv", "tpq7-large", "HGJoin+", cost{295, 228, 2207, 222839, 0, 0, 0}},
	{"arxiv", "tpq7-large", "HGJoin*", cost{295, 228, 550, 222839, 0, 0, 0}},
	{"arxiv", "tpq7-large", "TwigStackD", cost{295, 124375, 2134, 20564, 0, 0, 0}},
	{"arxiv", "tpq9-small", "GTEA", cost{9, 388, 18, 119053, 388, 0, 0}},
	{"arxiv", "tpq9-small", "GTEA-NoContours", cost{9, 388, 18, 221013, 388, 0, 0}},
	{"arxiv", "tpq9-small", "HGJoin+", cost{9, 191, 139, 250149, 0, 0, 0}},
	{"arxiv", "tpq9-small", "HGJoin*", cost{9, 191, 242, 250149, 0, 0, 0}},
	{"arxiv", "tpq9-small", "TwigStackD", cost{9, 162571, 98, 21519, 0, 0, 0}},
	{"arxiv", "tpq9-large", "GTEA", cost{504, 214, 100, 184810, 214, 0, 0}},
	{"arxiv", "tpq9-large", "GTEA-NoContours", cost{504, 214, 100, 265040, 214, 0, 0}},
	{"arxiv", "tpq9-large", "HGJoin+", cost{504, 104, 4754, 216359, 0, 0, 0}},
	{"arxiv", "tpq9-large", "HGJoin*", cost{504, 104, 464, 216359, 0, 0, 0}},
	{"arxiv", "tpq9-large", "TwigStackD", cost{504, 162610, 4592, 83168, 0, 0, 0}},
	{"arxiv", "tpq11-small", "GTEA", cost{15, 261, 16, 27481, 261, 0, 0}},
	{"arxiv", "tpq11-small", "GTEA-NoContours", cost{15, 261, 16, 80649, 261, 0, 0}},
	{"arxiv", "tpq11-small", "HGJoin+", cost{15, 130, 1107, 53699, 0, 0, 0}},
	{"arxiv", "tpq11-small", "HGJoin*", cost{15, 130, 58, 53699, 0, 0, 0}},
	{"arxiv", "tpq11-small", "TwigStackD", cost{15, 200819, 182, 6077, 0, 0, 0}},
	{"arxiv", "tpq11-large", "GTEA", cost{210, 356, 36, 56252, 356, 0, 0}},
	{"arxiv", "tpq11-large", "GTEA-NoContours", cost{210, 356, 36, 99965, 356, 0, 0}},
	{"arxiv", "tpq11-large", "HGJoin+", cost{210, 178, 5150, 57732, 0, 0, 0}},
	{"arxiv", "tpq11-large", "HGJoin*", cost{210, 178, 106, 57732, 0, 0, 0}},
	{"arxiv", "tpq11-large", "TwigStackD", cost{210, 200828, 2336, 16412, 0, 0, 0}},
	{"arxiv", "tpq13-small", "GTEA", cost{28, 883, 22, 29991, 883, 0, 0}},
	{"arxiv", "tpq13-small", "GTEA-NoContours", cost{28, 883, 22, 84663, 883, 0, 0}},
	{"arxiv", "tpq13-small", "HGJoin+", cost{28, 441, 1666, 64190, 0, 0, 0}},
	{"arxiv", "tpq13-small", "HGJoin*", cost{28, 441, 118, 64190, 0, 0, 0}},
	{"arxiv", "tpq13-small", "TwigStackD", cost{28, 239072, 386, 3879, 0, 0, 0}},
	{"arxiv", "tpq13-large", "GTEA", cost{350, 1094, 84, 174686, 1094, 0, 0}},
	{"arxiv", "tpq13-large", "GTEA-NoContours", cost{350, 1094, 84, 314695, 1094, 0, 0}},
	{"arxiv", "tpq13-large", "HGJoin+", cost{350, 546, 10950, 220086, 0, 0, 0}},
	{"arxiv", "tpq13-large", "HGJoin*", cost{350, 546, 346, 220086, 0, 0, 0}},
	{"arxiv", "tpq13-large", "TwigStackD", cost{350, 239102, 4602, 84847, 0, 0, 0}},
}

// paperSeed drives every query's label choices and the arXiv sampler.
const paperSeed = 17

// paperQuery is one query of the reproduction and the engines it runs
// on.
type paperQuery struct {
	name    string
	q       *core.Query
	engines []string
}

// paperDataset is one dataset with its engines built once. Every
// engine that reads a reachability index shares h, the 3-hop index;
// tc, the transitive closure, serves the oracle and the arXiv sampler.
type paperDataset struct {
	name    string
	g       *graph.Graph
	h, tc   reach.ContourIndex
	gtea    map[string]*gtea.Engine
	ts      *twigstack.Engine
	t2s     *twig2stack.Engine
	tsd     *twigstackd.Engine
	queries []paperQuery
}

var (
	fig8Engines = []string{"GTEA", "GTEA-NoContours", "GTEA-NoShrink", "HGJoin+", "HGJoin*", "TwigStackD", "TwigStack", "Twig2Stack"}
	exp1Engines = []string{"GTEA", "GTEA-NoShrink"}
	exp2Engines = []string{"GTEA", "decomp(TwigStack)", "decomp(TwigStackD)"}
	fig9Engines = []string{"GTEA", "GTEA-NoContours", "HGJoin+", "HGJoin*", "TwigStackD"}
)

// paperDatasets builds the two fixtures: one XMark site (scale 1.5 at
// 150 persons per unit) with Q1–Q3 (Figs 8, 10), Q4–Q8 (Fig 12(a),
// Table 5) and the Table 4 GTPQs; and the default arXiv graph with one
// small-result and one large-result random TPQ per Fig 9 size.
func paperDatasets() []*paperDataset {
	xg, _ := xmark.Generate(xmark.Config{Scale: 1.5, PersonsPerUnit: 150, Seed: 7})
	x := newPaperDataset("xmark", xg)
	x.ts, x.t2s = twigstack.New(xg), twig2stack.New(xg)
	for _, b := range []struct {
		name  string
		build func(*rand.Rand) *core.Query
	}{{"Q1", XMarkQ1}, {"Q2", XMarkQ2}, {"Q3", XMarkQ3}} {
		x.add(b.name, b.build(rand.New(rand.NewSource(paperSeed))), fig8Engines)
	}
	for _, name := range []string{"Q4", "Q5", "Q6", "Q7", "Q8"} {
		q, err := NewExp1(rand.New(rand.NewSource(paperSeed)), name)
		if err != nil {
			panic(err)
		}
		x.add(name, q, exp1Engines)
	}
	for _, spec := range Exp2Specs {
		q, err := NewExp2(rand.New(rand.NewSource(paperSeed)), spec)
		if err != nil {
			panic(err)
		}
		x.add(spec.Name, q, exp2Engines)
	}

	ag, _ := arxiv.Generate(arxiv.DefaultConfig())
	a := newPaperDataset("arxiv", ag)
	sampler := gtea.NewWithIndex(ag, a.tc, gtea.Options{})
	rng := rand.New(rand.NewSource(paperSeed))
	for _, size := range []int{5, 7, 9, 11, 13} {
		var small, large *core.Query
		for small == nil || large == nil {
			q := RandomTPQ(rng, ag, size)
			switch Classify(rowsUpTo(sampler, q, 1201)) { // one past the Large band
			case Small:
				if small == nil {
					small = q
				}
			case Large:
				if large == nil {
					large = q
				}
			}
		}
		a.add(fmt.Sprintf("tpq%d-small", size), small, fig9Engines)
		a.add(fmt.Sprintf("tpq%d-large", size), large, fig9Engines)
	}
	return []*paperDataset{x, a}
}

// rowsUpTo counts q's result rows on e, stopping at max: a sampled
// query outside both Fig 9 bands may have far more.
func rowsUpTo(e *gtea.Engine, q *core.Query, max int) int {
	cur, _, err := e.EvalCursor(context.Background(), q)
	if err != nil {
		panic(err)
	}
	defer cur.Close()
	n := 0
	for ; n < max; n++ {
		if _, ok := cur.Next(); !ok {
			break
		}
	}
	return n
}

func newPaperDataset(name string, g *graph.Graph) *paperDataset {
	h := reach.NewThreeHop(g)
	return &paperDataset{
		name: name, g: g, h: h, tc: reach.NewTC(g),
		gtea: map[string]*gtea.Engine{
			"GTEA":            gtea.NewWithIndex(g, h, gtea.Options{NoPlan: true}),
			"GTEA-NoContours": gtea.NewWithIndex(g, h, gtea.Options{NoPlan: true, NoContours: true}),
			"GTEA-NoShrink":   gtea.NewWithIndex(g, h, gtea.Options{NoPlan: true, NoShrink: true}),
		},
		tsd: twigstackd.New(g),
	}
}

func (d *paperDataset) add(name string, q *core.Query, engines []string) {
	d.queries = append(d.queries, paperQuery{name, q, engines})
}

// eval evaluates q once on the named engine.
func (d *paperDataset) eval(engine string, q *core.Query) (*core.Answer, cost) {
	var ans *core.Answer
	var c cost
	switch engine {
	case "GTEA", "GTEA-NoContours", "GTEA-NoShrink":
		var st gtea.Stats
		ans, st = d.gtea[engine].EvalStats(q)
		c = cost{input: st.Input, intermediate: st.Intermediate, index: st.Index, pruneInput: st.PruneInput, enumInput: st.EnumInput}
	case "HGJoin+", "HGJoin*":
		// A fresh engine per call: HGJoin+'s random plans draw from
		// the engine's own source.
		e := hgjoin.NewWithIndex(d.g, d.h)
		if engine == "HGJoin+" {
			ans = e.EvalPlus(q)
		} else {
			ans = e.EvalStar(q)
		}
		st := e.Stats()
		c = cost{input: st.Input, intermediate: st.Intermediate, index: st.Index}
	case "TwigStackD":
		ans = d.tsd.Eval(q)
		st := d.tsd.Stats()
		c = cost{input: st.Input, intermediate: st.Intermediate, index: st.Index}
	case "TwigStack":
		ans = d.ts.Eval(q)
		st := d.ts.Stats()
		c = cost{input: st.Input, intermediate: st.Intermediate}
	case "Twig2Stack":
		ans = d.t2s.Eval(q)
		st := d.t2s.Stats()
		c = cost{input: st.Input, intermediate: st.Intermediate}
	case "decomp(TwigStack)", "decomp(TwigStackD)":
		s := &summed{d: d, engine: engine[len("decomp(") : len(engine)-1]}
		w := decomp.New(d.g, s, d.h)
		ans = w.Eval(q)
		c = s.total
		c.subqueries = int64(w.Subqueries)
	default:
		panic("paper_test: unknown engine " + engine)
	}
	c.results = int64(ans.Len())
	return ans, c
}

// summed is the conjunctive engine under a decomp.Wrapper: it adds up
// the counters of every subquery the wrapper evaluates.
type summed struct {
	d      *paperDataset
	engine string
	total  cost
}

func (s *summed) Eval(q *core.Query) *core.Answer {
	ans, c := s.d.eval(s.engine, q)
	s.total.add(c)
	return ans
}

// TestPaperCostsGolden evaluates every row of paperCostsGolden,
// checks each answer against core.EvalNaive over the transitive
// closure, pins the counters, and asserts the Fig 10 orderings that
// hold at this scale (README "Paper artifacts" records the one that
// does not).
func TestPaperCostsGolden(t *testing.T) {
	got := map[[3]string]cost{}
	for _, d := range paperDatasets() {
		for _, pq := range d.queries {
			want := core.EvalNaive(d.g, d.tc, pq.q)
			for _, engine := range pq.engines {
				ans, c := d.eval(engine, pq.q)
				if !ans.Equal(want) {
					t.Errorf("%s/%s/%s: %d rows, the oracle %d", d.name, pq.name, engine, ans.Len(), want.Len())
				}
				got[[3]string{d.name, pq.name, engine}] = c
			}
		}
	}
	if len(got) != len(paperCostsGolden) {
		t.Errorf("%d combinations ran, the table has %d rows", len(got), len(paperCostsGolden))
	}
	for _, row := range paperCostsGolden {
		key := [3]string{row.data, row.query, row.engine}
		if c, ok := got[key]; !ok {
			t.Errorf("%v: not run", key)
		} else if c != row.want {
			t.Errorf("%v: %+v, want %+v", key, c, row.want)
		}
	}

	// Fig 10 (Q1): GTEA's maximal matching graph is smaller than the
	// tuple intermediates of HGJoin+, TwigStack and Twig2Stack, and it
	// looks up fewer index entries than HGJoin+.
	fig10 := func(engine string) cost { return got[[3]string{"xmark", "Q1", engine}] }
	gt := fig10("GTEA")
	for _, other := range []string{"HGJoin+", "TwigStack", "Twig2Stack"} {
		if o := fig10(other); gt.intermediate >= o.intermediate {
			t.Errorf("Fig 10: GTEA #intermediate %d, not below %s's %d", gt.intermediate, other, o.intermediate)
		}
	}
	if o := fig10("HGJoin+"); gt.index >= o.index {
		t.Errorf("Fig 10: GTEA #index %d, not below HGJoin+'s %d", gt.index, o.index)
	}
}

// BenchmarkBaselines times every (dataset, query, engine) of
// paperCostsGolden, one sub-benchmark each: who wins, and by what
// factor.
//
//	go test -run '^$' -bench 'Baselines/xmark/Q1/' ./internal/queries
func BenchmarkBaselines(b *testing.B) {
	for _, d := range paperDatasets() {
		for _, pq := range d.queries {
			for _, engine := range pq.engines {
				b.Run(d.name+"/"+pq.name+"/"+engine, func(b *testing.B) {
					for b.Loop() {
						d.eval(engine, pq.q)
					}
				})
			}
		}
	}
}

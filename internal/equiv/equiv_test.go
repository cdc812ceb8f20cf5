// Package equiv holds the one differential driver for every serving
// configuration: each is checked against core.EvalNaive, the paper's
// §2 semantics evaluated directly, over a from-scratch reach.TC of the
// logical graph (base plus every batch applied so far). There is no
// non-test code here.
//
// The axes are slices of named values below; adding a value or an
// axis is one line. The data axes (shape × backend × layout × plan)
// run as a full product, and each product cell walks the whole
// pending-deltas axis on one dataset. The delivery axes (delivery,
// cache, replica, standing) rotate over the cells as a covering set.
// Every axis value then gets a subtest, axes/<axis>/<value>, that
// fails unless the value met every backend and every layout.
//
// CI runs this package whole (go test -race ./internal/equiv), not by
// -run list: a -run pattern passes silently once a rename empties it.
// GTPQ_EQUIV_SEED and GTPQ_EQUIV_CASES (gen.EquivKnobs) rotate the
// seed and scale the graphs per shape, as the nightly job does.
package equiv

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gtpq/internal/catalog"
	"gtpq/internal/core"
	"gtpq/internal/delta"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/graphio"
	"gtpq/internal/gtea"
	"gtpq/internal/qlang"
	"gtpq/internal/reach"
	"gtpq/internal/shard"
	"gtpq/internal/snapshot"
)

// labels is the alphabet of every generated graph, batch and query.
var labels = []string{"a", "b", "c", "d"}

// shapes is the graph-shape axis. path is the long-chain shape: one
// component, so at K > 1 every shard but one is empty.
var shapes = []struct {
	name string
	gen  func(r *rand.Rand) *graph.Graph
}{
	{"forest", func(r *rand.Rand) *graph.Graph { return gen.Forest(r, 3+r.Intn(3), 6+r.Intn(6), 9+r.Intn(9), labels) }},
	{"dag", func(r *rand.Rand) *graph.Graph {
		n := 20 + r.Intn(20)
		return gen.Graph(r, n, 2*n+r.Intn(n), labels, true)
	}},
	{"zipf", func(r *rand.Rand) *graph.Graph {
		return gen.ZipfForest(r, 3+r.Intn(3), 8+r.Intn(8), 12+r.Intn(12), labels)
	}},
	{"path", func(r *rand.Rand) *graph.Graph { return path(r, 48) }},
}

// layouts is the layout axis: how the base is built or stored. The
// in-memory ones also persist the engine they built, as the catalog
// reads it, for the stages that go through the catalog.
var layouts = []layout{
	{"flat", 1, flatInMemory},
	{"k1", 1, shardsInMemory},
	{"k2", 2, shardsInMemory},
	{"k4", 4, shardsInMemory},
	{"k7", 7, shardsInMemory},
	{"snap", 1, snapOnDisk},
	{"dir", 3, dirOnDisk},
}

// plans is the planner axis (gtea.Options.NoPlan).
var plans = []struct {
	name   string
	noPlan bool
}{{"plan", false}, {"noplan", true}}

// stages is the pending-deltas axis, walked in order on one dataset:
// each step goes through the catalog, and every answer is checked
// after it.
var stages = []struct {
	name string
	do   step
}{
	{"none", stepNone},
	{"batch 1", stepApply},
	{"batch 2", stepApply},
	{"batch 3", stepApply},
	{"restart replay", stepRestart},
	{"compaction", stepCompact},
	{"batch after compaction", stepApply},
}

type step int

const (
	stepNone    step = iota
	stepApply        // catalog.ApplyDelta of the next batch
	stepRestart      // a fresh catalog.Open over the directory
	stepCompact      // catalog.Compact
)

// layout builds one base layout of g into dir as dataset "ds" and
// returns the in-memory engine it built, or nil when the catalog's
// load is the engine.
type layout struct {
	name  string
	k     int // shards the catalog serves the base with
	build func(t *testing.T, dir string, g *graph.Graph, kind string, k int, noPlan bool) catalog.Engine
}

// flatInMemory builds an unsharded engine; the catalog builds the same
// index from the raw JSON graph.
func flatInMemory(t *testing.T, dir string, g *graph.Graph, kind string, _ int, noPlan bool) catalog.Engine {
	eng, err := gtea.NewWithOptions(g, gtea.Options{Index: kind, NoPlan: noPlan})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "ds.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := graphio.Save(f, g); err != nil {
		t.Fatal(err)
	}
	return eng
}

// shardsInMemory builds a K-shard engine and saves it as a shard
// directory.
func shardsInMemory(t *testing.T, dir string, g *graph.Graph, kind string, k int, noPlan bool) catalog.Engine {
	plan, err := shard.Partition(g, k, shard.ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	se, err := shard.NewEngine(g, plan, shard.Options{Index: kind, NoPlan: noPlan})
	if err != nil {
		t.Fatal(err)
	}
	if u := se.Union(); se.NumShards() != k || u.N() != g.N() || u.M() != g.M() {
		t.Fatalf("built %d shards over %d/%d, want %d over %d/%d", se.NumShards(), u.N(), u.M(), k, g.N(), g.M())
	}
	if _, err := se.Save(filepath.Join(dir, "ds"), "ds"); err != nil {
		t.Fatal(err)
	}
	return se
}

// snapOnDisk writes the base as `ds.snap`, as gtpq -save-snapshot does.
func snapOnDisk(t *testing.T, dir string, g *graph.Graph, kind string, _ int, _ bool) catalog.Engine {
	h, err := reach.Build(kind, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.SaveFile(filepath.Join(dir, "ds.snap"), g, h); err != nil {
		t.Fatal(err)
	}
	return nil
}

// dirOnDisk writes the base as a shard directory, as gtpq-shard does.
func dirOnDisk(t *testing.T, dir string, g *graph.Graph, kind string, k int, _ bool) catalog.Engine {
	plan, err := shard.Partition(g, k, shard.ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	man, err := shard.WriteDir(filepath.Join(dir, "ds"), "ds", g, plan, shard.Options{Index: kind})
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != k || man.Mode != shard.ModeWCC || man.Replicated != 0 || man.TotalNodes != g.N() || man.TotalEdges != g.M() {
		t.Fatalf("manifest %+v for %d shards over %d/%d", man, k, g.N(), g.M())
	}
	return nil
}

// path is a chain of n vertices with random labels.
func path(r *rand.Rand, n int) *graph.Graph {
	g := graph.New(n, n-1)
	for i := 0; i < n; i++ {
		g.AddNode(labels[r.Intn(len(labels))], nil)
	}
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	g.Freeze()
	return g
}

// workload is one generated graph with its queries, its batches, and
// the oracle's answers after every stage.
type workload struct {
	g       *graph.Graph
	queries []query
	batches []delta.Batch    // one per stepApply, in order
	ext     []*graph.Graph   // logical graph after each stage
	want    [][]*core.Answer // [stage][query]
}

// query is a generated query with its qlang text and column names.
type query struct {
	q       *core.Query
	text    string
	columns []string
}

const (
	queriesPerGraph = 3
	// maxRows bounds an oracle answer. core.EvalNaive enumerates every
	// row, and a batch that closes a cycle can make an AD query over a
	// chain quadratic or worse; such a query is redrawn.
	maxRows = 2000
)

// newWorkload draws one graph of the shape, its batches, and queries
// whose oracle answers stay under maxRows at every stage.
func newWorkload(t *testing.T, r *rand.Rand, shapeGen func(*rand.Rand) *graph.Graph) *workload {
	w := &workload{g: shapeGen(r)}
	cur := w.g
	for _, s := range stages {
		if s.do == stepApply {
			b := randomBatch(r, cur.N())
			w.batches = append(w.batches, b)
			next, err := delta.Extend(w.g, w.batches)
			if err != nil {
				t.Fatal(err)
			}
			cur = next
		}
		w.ext = append(w.ext, cur)
	}
	oracles := make([]*reach.TC, len(stages))
	for i, ext := range w.ext {
		oracles[i] = reach.NewTC(ext)
	}
	w.want = make([][]*core.Answer, len(stages))
	seen := map[string]bool{}
	for tries := 0; len(w.queries) < queriesPerGraph; tries++ {
		if tries == 200 {
			t.Fatalf("drew no %d queries with answers under %d rows", queriesPerGraph, maxRows)
		}
		g := gen.Query(r, 2+r.Intn(4), labels, true, true)
		for i, n := range g.Nodes {
			n.Name = fmt.Sprintf("n%d", i) // the DSL needs unique names
		}
		// The server numbers nodes as it parses, so every side
		// evaluates the parsed text.
		text := qlang.Format(g)
		q, err := qlang.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if seen[text] {
			continue // a repeat would meet a warm cache where a cold one is expected
		}
		answers := make([]*core.Answer, len(stages))
		small := true
		for i, ext := range w.ext {
			answers[i] = core.EvalNaive(ext, oracles[i], q)
			small = small && answers[i].Len() <= maxRows
		}
		if !small {
			continue
		}
		seen[text] = true
		cols := make([]string, 0, len(answers[0].Out))
		for _, u := range answers[0].Out {
			cols = append(cols, q.Nodes[u].Name)
		}
		w.queries = append(w.queries, query{q: q, text: text, columns: cols})
		for i, a := range answers {
			w.want[i] = append(w.want[i], a)
		}
	}
	return w
}

// randomBatch adds up to one vertex and one to four edges; edges may
// close cycles and touch the new vertex.
func randomBatch(r *rand.Rand, n int) delta.Batch {
	var b delta.Batch
	for i := r.Intn(2); i > 0; i-- {
		b.Nodes = append(b.Nodes, delta.NodeAdd{Label: labels[r.Intn(len(labels))]})
	}
	limit := n + len(b.Nodes)
	for i := 1 + r.Intn(4); i > 0; i-- {
		b.Edges = append(b.Edges, delta.EdgeAdd{From: graph.NodeID(r.Intn(limit)), To: graph.NodeID(r.Intn(limit))})
	}
	return b
}

// TestOracleMatrix runs every data cell through the whole
// pending-deltas axis and checks every answer against the oracle.
func TestOracleMatrix(t *testing.T) {
	seed, trials := gen.EquivKnobs(t, 4242, 1)
	var met sync.Map // "value × backend" and "value × layout" a delivery-axis value met
	var cells, answers, multiPage atomic.Int64
	t.Run("cells", func(t *testing.T) {
		for si, sh := range shapes {
			for trial := 0; trial < trials; trial++ {
				r := rand.New(rand.NewSource(seed + int64(trial*len(shapes)+si)))
				w := newWorkload(t, r, sh.gen)
				for bi, kind := range reach.Kinds() {
					for li, lay := range layouts {
						for pi, pl := range plans {
							c := &cell{
								w: w, kind: kind, layout: lay, noPlan: pl.noPlan,
								rot:      si + trial + bi + li + pi,
								cache:    caches[(si+trial+pi)%len(caches)],
								replica:  pi == 0 && (si+trial+bi)%len(shapes) == li%len(shapes),
								standing: pi == 1 && (si+trial+bi)%len(shapes) == li%len(shapes),
								met:      &met,
							}
							name := fmt.Sprintf("%s%d/%s/%s/%s", sh.name, trial, kind, lay.name, pl.name)
							t.Run(name, func(t *testing.T) {
								t.Parallel()
								c.run(t)
								for _, v := range []string{"shape/" + sh.name, "layout/" + lay.name, "plan/" + pl.name} {
									c.meet(v)
								}
								cells.Add(1)
								answers.Add(c.answers)
								multiPage.Add(c.multiPage)
							})
						}
					}
				}
			}
		}
	})
	if t.Failed() {
		return
	}
	t.Run("axes", func(t *testing.T) {
		for _, v := range axisValues() {
			t.Run(v, func(t *testing.T) {
				for _, kind := range reach.Kinds() {
					if _, ok := met.Load(v + " × " + kind); !ok {
						t.Errorf("never met backend %s", kind)
					}
				}
				for _, lay := range layouts {
					if _, ok := met.Load(v + " × " + lay.name); !ok && !strings.HasPrefix(v, "layout/") {
						t.Errorf("never met layout %s", lay.name)
					}
				}
			})
		}
	})
	if multiPage.Load() == 0 {
		t.Fatal("no query spanned more than one page: the paged deliveries tested nothing")
	}
	t.Logf("%d cells, %d answers checked against core.EvalNaive", cells.Load(), answers.Load())
}

// axisValues names every axis value as the cells record it.
func axisValues() []string {
	values := []string{"replica", "standing"}
	for _, sh := range shapes {
		values = append(values, "shape/"+sh.name)
	}
	for _, lay := range layouts {
		values = append(values, "layout/"+lay.name)
	}
	for _, pl := range plans {
		values = append(values, "plan/"+pl.name)
	}
	for _, st := range stages {
		values = append(values, "stage/"+st.name)
	}
	for _, d := range deliveries {
		values = append(values, "delivery/"+d.name)
	}
	for _, c := range caches {
		values = append(values, "cache/"+c)
	}
	return values
}

package snapshot_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gtpq/internal/arxiv"
	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/qlang"
	"gtpq/internal/queries"
	"gtpq/internal/reach"
	"gtpq/internal/shard"
	"gtpq/internal/snapshot"
	"gtpq/internal/xmark"
)

// The fixtures under testdata were written by the build before version
// 2, with these generator settings, and are never rewritten: they pin
// what version-1 files hold.
func xmark50() *graph.Graph {
	g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 50, Seed: 7})
	return g
}

func arxivTiny() *graph.Graph {
	g, _ := arxiv.Generate(arxiv.Config{
		Papers: 500, Authors: 250, AuthorsPerPaper: 2.5, CitesPerPaper: 1.8,
		Window: 100, PaperLabels: 60, AuthorLabels: 40, Seed: 11,
	})
	return g
}

// xmarkForest is two XMark sites of 20 persons (seeds 7 and 8) in one
// graph, one component each.
func xmarkForest() *graph.Graph {
	out := graph.New(0, 0)
	for _, seed := range []int64{7, 8} {
		g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 20, Seed: seed})
		off := graph.NodeID(out.N())
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			out.AddNode(g.Label(v), g.AttrMap(v))
		}
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			for _, w := range g.Out(v) {
				if g.EdgeKindOf(v, w) == graph.CrossEdge {
					out.AddCrossEdge(off+v, off+w)
				} else {
					out.AddEdge(off+v, off+w)
				}
			}
		}
	}
	out.Freeze()
	return out
}

// xmarkQueries are six queries over XMark labels: the README's, its
// negation, and the paper's Q1-Q3 and Q3 again with other groups.
func xmarkQueries(t *testing.T) []*core.Query {
	var qs []*core.Query
	for _, src := range []string{
		"node x label=open_auction output\npnode y label=bidder parent=x edge=ad\npred x: y",
		"node x label=open_auction output\npnode y label=bidder parent=x edge=ad\npred x: !y",
	} {
		q, err := qlang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	r := rand.New(rand.NewSource(3))
	return append(qs, queries.XMarkQ1(r), queries.XMarkQ2(r), queries.XMarkQ3(r), queries.XMarkQ3(r))
}

// arxivQueries are six random conjunctive queries of 3 to 8 nodes over g.
func arxivQueries(g *graph.Graph) []*core.Query {
	r := rand.New(rand.NewSource(5))
	var qs []*core.Query
	for size := 3; size <= 8; size++ {
		qs = append(qs, queries.RandomTPQ(r, g, size))
	}
	return qs
}

// evaluator is what a flat gtea.Engine and a shard.ShardedEngine share.
type evaluator interface {
	EvalStatsCtx(ctx context.Context, q *core.Query) (*core.Answer, gtea.Stats, error)
}

// sameAnswers fails t unless got answers every query in the same bytes
// as want, and returns how many rows want gave in all.
func sameAnswers(t *testing.T, name string, want, got evaluator, qs []*core.Query) int {
	t.Helper()
	rows := 0
	for i, q := range qs {
		w, _, werr := want.EvalStatsCtx(context.Background(), q)
		g, _, gerr := got.EvalStatsCtx(context.Background(), q)
		if werr != nil || gerr != nil {
			t.Fatalf("%s: query %d: %v, %v", name, i, werr, gerr)
		}
		if w.String() != g.String() {
			t.Errorf("%s: query %d answers differ from a fresh build:\nwant %v\ngot  %v", name, i, w, g)
		}
		rows += w.Len()
	}
	if rows == 0 {
		t.Errorf("%s: no query has an answer", name)
	}
	return rows
}

func save(t *testing.T, g *graph.Graph, h reach.ContourIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, g, h); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLegacyFixtures loads the version-1 .snap fixtures, a 3-hop XMark
// site and an arXiv graph with the tc index: each must answer six
// queries byte for byte as a fresh build does, and save as the version-2
// image of that fresh build, which loads and answers alike.
func TestLegacyFixtures(t *testing.T) {
	for _, c := range []struct {
		file, kind string
		g          *graph.Graph
		qs         func(*graph.Graph) []*core.Query
	}{
		{"v1-xmark50-threehop.snap", "threehop", xmark50(), func(*graph.Graph) []*core.Query { return xmarkQueries(t) }},
		{"v1-arxiv-tiny-tc.snap", "tc", arxivTiny(), arxivQueries},
	} {
		path := filepath.Join("testdata", c.file)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) < len(snapshot.Magic)+2 || raw[len(snapshot.Magic)] != 1 {
			t.Fatalf("%s is not a version-1 snapshot", c.file)
		}
		g1, h1, err := snapshot.LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if h1.Kind() != c.kind {
			t.Fatalf("%s: index kind %q, want %q", c.file, h1.Kind(), c.kind)
		}
		fresh, err := reach.Build(c.kind, c.g)
		if err != nil {
			t.Fatal(err)
		}
		qs, want := c.qs(c.g), gtea.NewWithIndex(c.g, fresh, gtea.Options{})
		rows := sameAnswers(t, c.file, want, gtea.NewWithIndex(g1, h1, gtea.Options{}), qs)
		t.Logf("%s: %d rows over %d queries", c.file, rows, len(qs))

		v2 := save(t, g1, h1)
		if !bytes.Equal(v2, save(t, c.g, fresh)) {
			t.Errorf("%s: re-saved as version 2, it differs from a fresh build's image", c.file)
		}
		g2, h2, err := snapshot.Decode(v2)
		if err != nil {
			t.Fatalf("%s re-saved: %v", c.file, err)
		}
		sameAnswers(t, c.file+" re-saved", want, gtea.NewWithIndex(g2, h2, gtea.Options{}), qs)
	}
}

// TestLegacyShardDir loads a two-shard directory whose shards are
// version-1 snapshots: it must answer six queries byte for byte as a
// fresh sharded build does, and save as the directory that fresh build
// writes, which loads and answers alike.
func TestLegacyShardDir(t *testing.T) {
	dir := filepath.Join("testdata", "v1-xmark-forest-2shards")
	se, man, err := shard.LoadDir(dir, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if se.NumShards() != 2 || man.Name != "forest" {
		t.Fatalf("loaded %d shards named %q, want 2 named forest", se.NumShards(), man.Name)
	}
	for _, sf := range man.Shards {
		raw, err := os.ReadFile(filepath.Join(dir, sf.Snap))
		if err != nil {
			t.Fatal(err)
		}
		if raw[len(snapshot.Magic)] != 1 {
			t.Fatalf("%s is not a version-1 snapshot", sf.Snap)
		}
	}
	g := xmarkForest()
	plan, err := shard.Partition(g, 2, shard.ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := shard.NewEngine(g, plan, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs := xmarkQueries(t)
	rows := sameAnswers(t, dir, fresh, se, qs)
	t.Logf("%s: %d rows over %d queries", dir, rows, len(qs))

	resaved, built := t.TempDir(), t.TempDir()
	if _, err := se.Save(resaved, "forest"); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Save(built, "forest"); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(built)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		a, errA := os.ReadFile(filepath.Join(resaved, de.Name()))
		b, errB := os.ReadFile(filepath.Join(built, de.Name()))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Errorf("%s: re-saved directory differs from a fresh build's (%v, %v)", de.Name(), errA, errB)
		}
	}
	se2, _, err := shard.LoadDir(resaved, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, dir+" re-saved", fresh, se2, qs)
}

// TestVersion1IndexIsRebuilt checks that a version-1 file's index is
// built from its graph, not decoded from its payload: the 3-hop fixture
// with the last 200 bytes of its payload flipped still loads, through
// one index build, and answers six queries as core.EvalNaive does. A
// cut inside the payload, and a kind Build does not list (the empty
// one, which Build would take for its default, among them), are still
// refused.
func TestVersion1IndexIsRebuilt(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1-xmark50-threehop.snap"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(raw)
	for i := len(flipped) - 200; i < len(flipped); i++ {
		flipped[i] ^= 0xff
	}
	before := reach.BuildCount()
	g, h, err := snapshot.Decode(flipped)
	if err != nil {
		t.Fatalf("a flipped index payload is refused: %v", err)
	}
	if built := reach.BuildCount() - before; built != 1 {
		t.Errorf("load performed %d index builds, want 1", built)
	}
	if g.N() != 1216 || h.Kind() != "threehop" || h.IndexSize() != 9018 {
		t.Errorf("loaded %d nodes, a %s index of %d entries; want 1216, threehop, 9018", g.N(), h.Kind(), h.IndexSize())
	}
	want := xmark50()
	oracle := reach.NewTC(want)
	e := gtea.NewWithIndex(g, h, gtea.Options{})
	for i, q := range xmarkQueries(t) {
		if w, got := core.EvalNaive(want, oracle, q), e.Eval(q); !w.Equal(got) {
			t.Errorf("query %d differs from core.EvalNaive:\nwant %v\ngot  %v", i, w, got)
		}
	}

	if _, _, err := snapshot.Decode(raw[:len(raw)-100]); err == nil {
		t.Error("a file cut inside its index payload loads")
	}
	header := len(snapshot.Magic) + 2
	if raw[header] != byte(len("threehop")) || string(raw[header+1:header+1+len("threehop")]) != "threehop" {
		t.Fatalf("fixture kind is not stored as threehop at offset %d", header)
	}
	rest := raw[header+1+len("threehop"):]
	for _, kind := range []string{"", "nope"} {
		data := append(append(append(bytes.Clone(raw[:header]), byte(len(kind))), kind...), rest...)
		if _, _, err := snapshot.Decode(data); err == nil {
			t.Errorf("kind %q loads", kind)
		}
	}
}

package shard_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gtpq/internal/catalog"
	"gtpq/internal/core"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/reach"
	"gtpq/internal/shard"
)

var fixtureLabels = []string{"a", "b", "c"}

// forestFixture has four components, two per shard at K=2.
func forestFixture() *graph.Graph {
	return gen.Forest(rand.New(rand.NewSource(123)), 4, 10, 16, fixtureLabels)
}

// oneComponentFixture is a single weakly-connected component (a
// spanning path plus random forward edges): at K=2 one shard is empty.
func oneComponentFixture() *graph.Graph {
	r := rand.New(rand.NewSource(124))
	const n = 30
	g := graph.New(n, 2*n)
	for i := 0; i < n; i++ {
		g.AddNode(fixtureLabels[r.Intn(len(fixtureLabels))], nil)
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	for e := 0; e < n; e++ {
		u := r.Intn(n - 1)
		g.AddEdge(graph.NodeID(u), graph.NodeID(u+1+r.Intn(n-u-1)))
	}
	g.Freeze()
	return g
}

// shardedFixture writes g as a 2-shard dataset "ds" into a fresh
// catalog directory and returns the directory, the shard directory,
// and the unsharded baseline answer of a probe query.
func shardedFixture(t *testing.T, g *graph.Graph) (catDir, shardDir string, q *core.Query, want *core.Answer) {
	t.Helper()
	q = gen.Query(rand.New(rand.NewSource(5)), 3, fixtureLabels, true, true)
	want = core.EvalNaive(g, reach.NewTC(g), q)

	catDir = t.TempDir()
	shardDir = filepath.Join(catDir, "ds")
	plan, err := shard.Partition(g, 2, shard.ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.WriteDir(shardDir, "ds", g, plan, shard.Options{}); err != nil {
		t.Fatal(err)
	}
	return catDir, shardDir, q, want
}

// acquireEval loads "ds" through a fresh catalog (no cache reuse
// across mutations) and evaluates the probe query.
func acquireEval(catDir string, q *core.Query) (*core.Answer, error) {
	cat, err := catalog.Open(catDir, catalog.Options{})
	if err != nil {
		return nil, err
	}
	ds, err := cat.Acquire("ds")
	if err != nil {
		return nil, err
	}
	defer ds.Release()
	ans, _, err := ds.Engine.EvalStatsCtx(context.Background(), q)
	return ans, err
}

// TestManifestSingleByteMutations is the integrity property of the
// shard manifest: for every single-byte mutation of manifest.json, a
// catalog load must either fail loudly or serve exactly the pristine
// answers — never partial data. (Mutations that survive are benign by
// construction: whitespace, hex case, or fields re-verified against
// the files.)
func TestManifestSingleByteMutations(t *testing.T) {
	catDir, shardDir, q, want := shardedFixture(t, forestFixture())
	manPath := filepath.Join(shardDir, shard.ManifestName)
	pristine, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := acquireEval(catDir, q); err != nil || !want.Equal(got) {
		t.Fatalf("pristine fixture broken: err=%v", err)
	}

	survived, failed := 0, 0
	for off := 0; off < len(pristine); off++ {
		for _, flip := range []byte{0xff, 0x20, 0x01} {
			mut := append([]byte(nil), pristine...)
			mut[off] ^= flip
			if err := os.WriteFile(manPath, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := acquireEval(catDir, q)
			if err != nil {
				failed++
				continue
			}
			survived++
			if !want.Equal(got) {
				t.Fatalf("offset %d flip %#x: mutated manifest served different answers\nmanifest: %s",
					off, flip, mut)
			}
		}
	}
	if err := os.WriteFile(manPath, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if failed == 0 {
		t.Fatal("no mutation was rejected — integrity checks are not wired in")
	}
	t.Logf("%d mutations rejected, %d survived benignly", failed, survived)
}

// TestShardFilesMissingOrExtra checks the directory-shape guards:
// deleting any shard file, truncating one, or dropping a stray shard
// file into the directory fails the load — with components on both
// shards ("wcc") and with one shard empty.
func TestShardFilesMissingOrExtra(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"wcc", forestFixture()}, {"one_component", oneComponentFixture()}} {
		t.Run(c.name, func(t *testing.T) {
			catDir, shardDir, q, want := shardedFixture(t, c.g)
			des, err := os.ReadDir(shardDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, de := range des {
				if de.Name() == shard.ManifestName {
					continue
				}
				path := filepath.Join(shardDir, de.Name())
				blob, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				// Missing file.
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
				if _, err := acquireEval(catDir, q); err == nil {
					t.Fatalf("load succeeded with %s missing", de.Name())
				}
				// Truncated file (content-hash mismatch).
				if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := acquireEval(catDir, q); err == nil {
					t.Fatalf("load succeeded with %s truncated", de.Name())
				}
				// One flipped byte in the file itself.
				mut := append([]byte(nil), blob...)
				mut[len(mut)/2] ^= 0xff
				if err := os.WriteFile(path, mut, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := acquireEval(catDir, q); err == nil {
					t.Fatalf("load succeeded with %s corrupted", de.Name())
				}
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for _, stray := range []string{"shard-9999.snap", "stray.ids"} {
				path := filepath.Join(shardDir, stray)
				if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := acquireEval(catDir, q); err == nil {
					t.Fatalf("load succeeded with unlisted %s present", stray)
				}
				os.Remove(path)
			}
			// Directory restored: loads and answers correctly again.
			got, err := acquireEval(catDir, q)
			if err != nil || !want.Equal(got) {
				t.Fatalf("restored directory: err=%v", err)
			}
		})
	}
}

// TestReshardToFewerShards re-saves a 4-shard directory at K=2 in
// place, as `gtpq-shard -k 4 -out d` then `-k 2 -out d` does: the
// wider save's extra shard files are removed, so the directory still
// loads and answers.
func TestReshardToFewerShards(t *testing.T) {
	g := forestFixture()
	q := gen.Query(rand.New(rand.NewSource(5)), 3, fixtureLabels, true, true)
	want := core.EvalNaive(g, reach.NewTC(g), q)
	dir := filepath.Join(t.TempDir(), "ds")
	for _, k := range []int{4, 2} {
		plan, err := shard.Partition(g, k, shard.ModeWCC)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := shard.WriteDir(dir, "ds", g, plan, shard.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, stale := range []string{"shard-0002.snap", "shard-0003.ids"} {
		if _, err := os.Stat(filepath.Join(dir, stale)); !os.IsNotExist(err) {
			t.Fatalf("%s survived the K=2 save: %v", stale, err)
		}
	}
	se, man, err := shard.LoadDir(dir, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := se.EvalStatsCtx(context.Background(), q)
	if err != nil || len(man.Shards) != 2 || se.NumShards() != 2 || !want.Equal(got) {
		t.Fatalf("re-sharded directory: %d manifest shards, %d loaded, answers equal %t (%v)",
			len(man.Shards), se.NumShards(), want.Equal(got), err)
	}
}

// TestCatalogServesSharded covers the catalog integration: names,
// listing metadata, acquisition, and precedence of the sharded
// directory over a flat file of the same name.
func TestCatalogServesSharded(t *testing.T) {
	catDir, _, q, want := shardedFixture(t, forestFixture())
	cat, err := catalog.Open(catDir, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names, err := cat.Names()
	if err != nil || len(names) != 1 || names[0] != "ds" {
		t.Fatalf("names = %v err=%v", names, err)
	}
	infos, err := cat.List()
	if err != nil || len(infos) != 1 {
		t.Fatalf("list = %+v err=%v", infos, err)
	}
	if infos[0].Shards != 2 || infos[0].Loaded {
		t.Fatalf("pre-load info = %+v", infos[0])
	}

	ds, err := cat.Acquire("ds")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Release()
	if !ds.Sharded {
		t.Fatal("two-shard dataset handle: Sharded=false")
	}
	if got, _, err := ds.Engine.EvalStatsCtx(context.Background(), q); err != nil || !want.Equal(got) {
		t.Fatal("sharded catalog answers differ from unsharded baseline")
	}
	se, ok := ds.Engine.(*shard.ShardedEngine)
	if !ok || se.NumShards() != 2 {
		t.Fatalf("engine = %T", ds.Engine)
	}
	if ds.Nodes() != se.TotalNodes() || ds.Edges() != se.TotalEdges() {
		t.Fatal("Dataset size helpers disagree with the engine")
	}

	infos, err = cat.List()
	if err != nil {
		t.Fatal(err)
	}
	if !infos[0].Loaded || infos[0].Shards != 2 || len(infos[0].ShardInfo) != 2 {
		t.Fatalf("post-load info = %+v", infos[0])
	}
	var evals int64
	for _, si := range infos[0].ShardInfo {
		evals += si.Evals
	}
	if evals == 0 {
		t.Fatal("per-shard eval counters did not advance")
	}
}

package catalog

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/delta"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/graphio"
	"gtpq/internal/gtea"
	"gtpq/internal/reach"
	"gtpq/internal/shard"
	"gtpq/internal/snapshot"
)

// TestOneShardLayoutsServeAlike stores one multi-component graph three
// ways — JSON, a snapshot, and a one-shard directory — and requires
// the same handle from each: the one shard's own gtea.Engine (no
// scatter, planner stats kept), the same sizes and answers, and no
// shard fields in the listing. A one-shard base's Union and
// CompositeIndex are the shard's graph and index, not copies.
func TestOneShardLayoutsServeAlike(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	g := gen.Forest(r, 4, 9, 14, deltaLabels)
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := graphio.Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "raw.json"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := reach.Build("", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.SaveFile(filepath.Join(dir, "snap.snap"), g, h); err != nil {
		t.Fatal(err)
	}
	plan, err := shard.Partition(g, 1, shard.ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.WriteDir(filepath.Join(dir, "onedir"), "onedir", g, plan, shard.Options{}); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"raw", "snap", "onedir"}
	checkListing := func() {
		t.Helper()
		infos, err := c.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != len(names) {
			t.Fatalf("listed %d datasets, want %d", len(infos), len(names))
		}
		for _, info := range infos {
			if info.Shards != 0 || info.ShardInfo != nil {
				t.Fatalf("%s: one-shard dataset lists shards=%d shard_info=%v", info.Name, info.Shards, info.ShardInfo)
			}
		}
	}
	checkListing() // unloaded: the manifest says one shard

	queries := make([]*core.Query, 6)
	for i := range queries {
		queries[i] = gen.Query(r, 2+r.Intn(4), deltaLabels, true, true)
	}
	var want [][]byte
	rows := 0
	for _, name := range names {
		ds, err := c.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		eng, ok := ds.Engine.(*gtea.Engine)
		if !ok || ds.Sharded {
			t.Fatalf("%s: engine %T, Sharded=%v; want the shard's *gtea.Engine", name, ds.Engine, ds.Sharded)
		}
		if ds.Nodes() != g.N() || ds.Edges() != g.M() {
			t.Fatalf("%s: %d nodes / %d edges, want %d / %d", name, ds.Nodes(), ds.Edges(), g.N(), g.M())
		}
		base := ds.entry.base
		if base.NumShards() != 1 || base.Union() != eng.G || base.CompositeIndex() != eng.H {
			t.Fatalf("%s: one-shard base copies its graph or index", name)
		}
		for i, q := range queries {
			ans, st, err := ds.Engine.EvalStatsCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if st.Plan == nil {
				t.Fatalf("%s query %d: no plan in the stats", name, i)
			}
			got, err := json.Marshal(ans.Tuples)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) <= i {
				want = append(want, got)
				rows += ans.Len()
			} else if !bytes.Equal(got, want[i]) {
				t.Fatalf("%s query %d: answer differs\nwant %s\ngot  %s", name, i, want[i], got)
			}
		}
		ds.Release()
	}
	if rows == 0 {
		t.Fatal("every query answered empty; the comparison proves nothing")
	}
	checkListing() // loaded
}

// TestOneShardDirCompactsToADirectory pins where a one-shard directory's
// compaction lands: back in its directory as one shard, because resolve
// prefers the directory over any `<name>.snap`, and served from memory
// through the shard's engine with the folded delta in it.
func TestOneShardDirCompactsToADirectory(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	g := gen.Forest(r, 3, 8, 12, deltaLabels)
	dir := t.TempDir()
	plan, err := shard.Partition(g, 1, shard.ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.WriteDir(filepath.Join(dir, "ds"), "ds", g, plan, shard.Options{}); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := delta.Batch{Nodes: []delta.NodeAdd{{Label: "a"}}, Edges: []delta.EdgeAdd{{From: 0, To: graph.NodeID(g.N())}}}
	ds, err := c.ApplyDelta("ds", b)
	if err != nil {
		t.Fatal(err)
	}
	ds.Release()
	dsc, err := c.Compact("ds")
	if err != nil {
		t.Fatal(err)
	}
	defer dsc.Release()
	if _, err := os.Stat(filepath.Join(dir, "ds.snap")); !os.IsNotExist(err) {
		t.Fatalf("compaction wrote ds.snap beside the directory (stat err %v)", err)
	}
	man, err := shard.ReadManifest(filepath.Join(dir, "ds", shard.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != 1 || man.TotalNodes != g.N()+1 {
		t.Fatalf("compacted manifest: %d shards, %d nodes", len(man.Shards), man.TotalNodes)
	}
	eng, ok := dsc.Engine.(*gtea.Engine)
	if !ok || dsc.Sharded || dsc.PendingDeltas != 0 || !eng.G.HasEdge(0, graph.NodeID(g.N())) {
		t.Fatalf("compacted handle: engine %T, Sharded=%v, %d pending", dsc.Engine, dsc.Sharded, dsc.PendingDeltas)
	}
	ext, err := delta.Extend(g, []delta.Batch{b})
	if err != nil {
		t.Fatal(err)
	}
	oracle := reach.NewTC(ext)
	reloaded, _, err := shard.LoadDir(filepath.Join(dir, "ds"), shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		q := gen.Query(r, 2+r.Intn(4), deltaLabels, true, true)
		want := core.EvalNaive(ext, oracle, q)
		if got, _, err := dsc.Engine.EvalStatsCtx(context.Background(), q); err != nil || !want.Equal(got) {
			t.Fatalf("query %d: compacted answers differ (%v)\n%s", i, err, q)
		}
		if got, _, err := reloaded.EvalStatsCtx(context.Background(), q); err != nil || !want.Equal(got) {
			t.Fatalf("query %d: the persisted directory answers differently (%v)\n%s", i, err, q)
		}
	}
}

package catalog

import (
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

var deltaLabels = []string{"a", "b", "c", "d"}

// writeFlatDataset writes g as <name>.snap into dir.
func writeFlatDataset(t *testing.T, dir, name, kind string, g *graph.Graph) {
	t.Helper()
	eng, err := gtea.NewWithOptions(g, gtea.Options{Index: kind})
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.SaveFile(filepath.Join(dir, name+".snap"), g, eng.H); err != nil {
		t.Fatal(err)
	}
}

// writeShardedDataset writes g as a 3-shard directory into dir.
func writeShardedDataset(t *testing.T, dir, name, kind string, g *graph.Graph) {
	t.Helper()
	plan, err := shard.Partition(g, 3, shard.ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.WriteDir(filepath.Join(dir, name), name, g, plan, shard.Options{Index: kind}); err != nil {
		t.Fatal(err)
	}
}

// randomBatch builds one random mutation batch over a dataset with n
// current vertices.
func randomBatch(r *rand.Rand, n int) delta.Batch {
	var b delta.Batch
	for i := r.Intn(2); i > 0; i-- {
		b.Nodes = append(b.Nodes, delta.NodeAdd{Label: deltaLabels[r.Intn(len(deltaLabels))]})
	}
	limit := n + len(b.Nodes)
	for i := 1 + r.Intn(4); i > 0; i-- {
		b.Edges = append(b.Edges, delta.EdgeAdd{
			From: graph.NodeID(r.Intn(limit)),
			To:   graph.NodeID(r.Intn(limit)),
		})
	}
	return b
}

// TestCatalogDeltaRawSource checks the delta path over a dataset
// loaded from raw JSON (no snapshot): the log's base fingerprint must
// match the freshly-built graph across restarts.
func TestCatalogDeltaRawSource(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	g := gen.Forest(r, 3, 6, 9, deltaLabels)
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "raw.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.Save(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cat, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	b := delta.Batch{Edges: []delta.EdgeAdd{{From: 0, To: graph.NodeID(g.N() - 1)}}}
	ds, err := cat.ApplyDelta("raw", b)
	if err != nil {
		t.Fatal(err)
	}
	if ds.PendingDeltas != 1 {
		t.Fatalf("pending = %d", ds.PendingDeltas)
	}
	ds.Release()

	cat2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()
	ds2, err := cat2.Acquire("raw")
	if err != nil {
		t.Fatalf("reload raw + deltas: %v", err)
	}
	if ds2.DeltaBatches != 1 {
		t.Fatalf("reload replayed %d batches", ds2.DeltaBatches)
	}
	if !ds2.Engine.(*gtea.Engine).G.HasEdge(0, graph.NodeID(g.N()-1)) {
		t.Fatal("replayed edge missing from extended graph")
	}
	ds2.Release()
}

// TestCatalogCompactCrashWindows pins the compaction commit protocol:
// a crash after the folded base published but before the log was
// removed must not brick the dataset (the marker proves the fold
// committed), while a crash before publication leaves the old base +
// log serving normally with the stale marker discarded.
func TestCatalogCompactCrashWindows(t *testing.T) {
	r := rand.New(rand.NewSource(80))
	g := gen.Forest(r, 3, 6, 9, deltaLabels)
	dir := t.TempDir()
	writeFlatDataset(t, dir, "ds", "", g)
	cat, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := delta.Batch{Edges: []delta.EdgeAdd{{From: 0, To: graph.NodeID(g.N() - 1)}}}
	ds, err := cat.ApplyDelta("ds", b)
	if err != nil {
		t.Fatal(err)
	}
	extended, err := delta.Extend(g, []delta.Batch{b})
	if err != nil {
		t.Fatal(err)
	}
	ds.Release()
	cat.Close()
	logRaw, err := os.ReadFile(filepath.Join(dir, "ds"+delta.LogSuffix))
	if err != nil {
		t.Fatal(err)
	}

	// Window A: marker written, fold NOT published (crash between
	// steps 1 and 2). The old base + log serve; the marker is inert.
	if err := delta.WriteFoldMarker(filepath.Join(dir, "ds"+delta.FoldMarkerSuffix), delta.BaseOf(extended)); err != nil {
		t.Fatal(err)
	}
	catA, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dsA, err := catA.Acquire("ds")
	if err != nil {
		t.Fatalf("stale marker bricked the dataset: %v", err)
	}
	if dsA.DeltaBatches != 1 || !dsA.Engine.(*gtea.Engine).G.HasEdge(0, graph.NodeID(g.N()-1)) {
		t.Fatalf("stale marker lost the pending delta: %d batches", dsA.DeltaBatches)
	}
	dsA.Release()
	catA.Close()

	// Window B: fold published (new snap = extended graph), log still
	// present with the OLD base fingerprint, marker present (crash
	// between steps 2 and 4). The marker must rescue the load and the
	// leftovers must be consumed.
	writeFlatDataset(t, dir, "ds", "", extended)
	if err := os.WriteFile(filepath.Join(dir, "ds"+delta.LogSuffix), logRaw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := delta.WriteFoldMarker(filepath.Join(dir, "ds"+delta.FoldMarkerSuffix), delta.BaseOf(extended)); err != nil {
		t.Fatal(err)
	}
	catB, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer catB.Close()
	dsB, err := catB.Acquire("ds")
	if err != nil {
		t.Fatalf("committed fold bricked the dataset: %v", err)
	}
	if dsB.DeltaBatches != 0 {
		t.Fatalf("folded leftovers replayed again: %d batches", dsB.DeltaBatches)
	}
	if !dsB.Engine.(*gtea.Engine).G.HasEdge(0, graph.NodeID(g.N()-1)) {
		t.Fatal("folded base lost the delta edge")
	}
	dsB.Release()
	for _, leftover := range []string{"ds" + delta.LogSuffix, "ds" + delta.FoldMarkerSuffix} {
		if _, err := os.Stat(filepath.Join(dir, leftover)); !os.IsNotExist(err) {
			t.Fatalf("%s not cleaned up after fold recovery", leftover)
		}
	}
}

// TestCatalogShardedCompactSwapRecovery pins the other compaction
// crash window: sharded compaction renames the live directory aside
// before renaming the folded one in; a crash in between leaves only
// the aside copy, which resolve must restore instead of reporting an
// unknown dataset.
func TestCatalogShardedCompactSwapRecovery(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	g := gen.Forest(r, 4, 8, 12, deltaLabels)
	dir := t.TempDir()
	writeShardedDataset(t, dir, "ds", "", g)
	cat, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := delta.Batch{Edges: []delta.EdgeAdd{{From: 0, To: graph.NodeID(g.N() - 1)}}}
	ds, err := cat.ApplyDelta("ds", b)
	if err != nil {
		t.Fatal(err)
	}
	ds.Release()
	cat.Close()

	// Simulate the crash: live dir renamed aside, folded dir never
	// landed.
	if err := os.Rename(filepath.Join(dir, "ds"), filepath.Join(dir, ".ds.precompact")); err != nil {
		t.Fatal(err)
	}
	cat2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()
	names, err := cat2.Names()
	if err != nil || len(names) != 1 || names[0] != "ds" {
		// Names doesn't recover (dot-dirs are hidden) — Acquire must.
		t.Logf("names during crash window: %v (err %v)", names, err)
	}
	ds2, err := cat2.Acquire("ds")
	if err != nil {
		t.Fatalf("crash window bricked the sharded dataset: %v", err)
	}
	defer ds2.Release()
	if ds2.DeltaBatches != 1 || !ds2.Engine.(*gtea.Engine).G.HasEdge(0, graph.NodeID(g.N()-1)) {
		t.Fatalf("recovered dataset lost the pending delta: %d batches", ds2.DeltaBatches)
	}
	if _, err := os.Stat(filepath.Join(dir, "ds", shard.ManifestName)); err != nil {
		t.Fatalf("live directory not restored: %v", err)
	}
}

// TestCatalogDeltaLogBaseMismatch pins the failure mode of replacing a
// dataset's source under an existing delta log: the load must fail
// loudly, not silently drop or misapply the deltas.
func TestCatalogDeltaLogBaseMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	g := gen.Forest(r, 3, 6, 9, deltaLabels)
	dir := t.TempDir()
	writeFlatDataset(t, dir, "ds", "", g)
	cat, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := delta.Batch{Edges: []delta.EdgeAdd{{From: 0, To: 1}}}
	ds, err := cat.ApplyDelta("ds", b)
	if err != nil {
		t.Fatal(err)
	}
	ds.Release()
	cat.Close()

	// Replace the base with a structurally different graph.
	other := gen.Forest(r, 3, 6, 9, deltaLabels)
	writeFlatDataset(t, dir, "ds", "", other)
	cat2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()
	if _, err := cat2.Acquire("ds"); err == nil {
		t.Fatal("acquire over mismatched delta log succeeded; want loud failure")
	}
}

// TestCatalogShardedCompactKeepsWholeComponents pins that compaction
// re-packs whole components: a batch that joins two of a 3-shard
// dataset's three components leaves fewer components than shards, and
// the compacted directory must still be a wcc one, with every vertex
// in exactly one shard and answers equal to a flat engine.
func TestCatalogShardedCompactKeepsWholeComponents(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	const blocks, n = 3, 10
	g := graph.New(blocks*n, 3*blocks*n)
	for i := 0; i < blocks*n; i++ {
		g.AddNode(deltaLabels[r.Intn(len(deltaLabels))], nil)
	}
	for b := 0; b < blocks; b++ {
		base := b * n
		for i := 0; i+1 < n; i++ { // spanning path: each block is one component
			g.AddEdge(graph.NodeID(base+i), graph.NodeID(base+i+1))
		}
		for e := 0; e < n; e++ {
			u := r.Intn(n - 1)
			g.AddEdge(graph.NodeID(base+u), graph.NodeID(base+u+1+r.Intn(n-u-1)))
		}
	}
	g.Freeze()
	dir := t.TempDir()
	writeShardedDataset(t, dir, "ds", "", g)
	cat, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	b := delta.Batch{Edges: []delta.EdgeAdd{{From: 0, To: n}}}
	ds, err := cat.ApplyDelta("ds", b)
	if err != nil {
		t.Fatal(err)
	}
	ds.Release()
	dsc, err := cat.Compact("ds")
	if err != nil {
		t.Fatal(err)
	}
	defer dsc.Release()

	man, err := shard.ReadManifest(filepath.Join(dir, "ds", shard.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if man.Mode != shard.ModeWCC || man.Replicated != 0 || len(man.Shards) != blocks {
		t.Fatalf("compacted manifest: mode %q, replicated %d, %d shards", man.Mode, man.Replicated, len(man.Shards))
	}
	ext, err := delta.Extend(g, []delta.Batch{b})
	if err != nil {
		t.Fatal(err)
	}
	se, ok := dsc.Engine.(*shard.ShardedEngine)
	if !ok {
		t.Fatalf("compacted engine is %T", dsc.Engine)
	}
	held := 0
	for _, st := range se.ShardStats() {
		held += st.Nodes
	}
	if held != ext.N() {
		t.Fatalf("shards hold %d vertices, graph has %d: some vertex lives in two shards", held, ext.N())
	}
	oracle := reach.NewTC(ext)
	for i := 0; i < 5; i++ {
		q := gen.Query(r, 2+r.Intn(4), deltaLabels, true, true)
		got, _, err := dsc.Engine.EvalStatsCtx(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := core.EvalNaive(ext, oracle, q); !want.Equal(got) {
			t.Fatalf("query %d: compacted answers differ\n%s\nwant %v\ngot  %v", i, q, want, got)
		}
	}
}

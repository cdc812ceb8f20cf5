package catalog

import (
	"bytes"
	"compress/gzip"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"gtpq/internal/graph"
	"gtpq/internal/graphio"
	"gtpq/internal/qlang"
	"gtpq/internal/reach"
)

// writeGraph writes a small labeled graph as <name>.json (or .json.gz)
// into dir: labels[i] chained by tree edges.
func writeGraph(t *testing.T, dir, file string, labels []string) {
	t.Helper()
	g := graph.New(len(labels), len(labels)-1)
	for _, l := range labels {
		g.AddNode(l, nil)
	}
	for i := 0; i+1 < len(labels); i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g.Freeze()
	var buf bytes.Buffer
	if err := graphio.Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if filepath.Ext(file) == ".gz" {
		var zbuf bytes.Buffer
		zw := gzip.NewWriter(&zbuf)
		zw.Write(data)
		zw.Close()
		data = zbuf.Bytes()
	}
	if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireBuildsLazilyAndCaches(t *testing.T) {
	dir := t.TempDir()
	writeGraph(t, dir, "ab.json", []string{"a", "b", "b"})
	writeGraph(t, dir, "zipped.json.gz", []string{"a", "a", "b"})
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	names, err := c.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "ab" || names[1] != "zipped" {
		t.Fatalf("Names = %v", names)
	}

	ds, err := c.Acquire("ab")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Release()
	if ds.Nodes() != 3 || ds.FromSnapshot {
		t.Fatalf("ds: n=%d fromSnapshot=%v", ds.Nodes(), ds.FromSnapshot)
	}
	q, err := qlang.Parse("node x label=a output\npnode y label=b parent=x edge=ad\npred x: y")
	if err != nil {
		t.Fatal(err)
	}
	if ans, _, err := ds.Engine.EvalStatsCtx(context.Background(), q); err != nil || ans.Len() != 1 {
		t.Fatalf("eval on acquired dataset: %v, %v; want 1 result", ans, err)
	}

	// Second acquire shares the cached engine.
	ds2, err := c.Acquire("ab")
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Engine != ds.Engine {
		t.Fatal("second Acquire built a new engine")
	}
	ds2.Release()
	ds2.Release() // idempotent

	// Gzipped dataset loads too.
	dz, err := c.Acquire("zipped")
	if err != nil {
		t.Fatal(err)
	}
	if dz.Nodes() != 3 {
		t.Fatalf("gzipped dataset: n=%d", dz.Nodes())
	}
	dz.Release()

	if _, err := c.Acquire("missing"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := c.Acquire("../etc/passwd"); err == nil {
		t.Fatal("path-escaping dataset name accepted")
	}
}

// TestOpenRefusesUnknownIndex checks that an Options.Index outside
// reach.Kinds fails Open, before any dataset is loaded, and that the
// empty default and every listed kind are accepted.
func TestOpenRefusesUnknownIndex(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"bogus", "delta", "delta+threehop", "THREEHOP"} {
		if _, err := Open(dir, Options{Index: kind}); err == nil {
			t.Errorf("Open accepted index kind %q", kind)
		}
	}
	for _, kind := range append([]string{""}, reach.Kinds()...) {
		if _, err := Open(dir, Options{Index: kind}); err != nil {
			t.Errorf("Open refused index kind %q: %v", kind, err)
		}
	}
}

// TestBackendSet pins the backends a binary linking the delta overlay
// offers: the overlay wraps a backend and is not one itself.
func TestBackendSet(t *testing.T) {
	if got, want := reach.Kinds(), []string{"tc", "threehop"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reach.Kinds() = %v, want %v", got, want)
	}
}

// TestConcurrentAcquireSharesOneLoad races many Acquires of a cold
// dataset and checks exactly one engine gets built.
func TestConcurrentAcquireSharesOneLoad(t *testing.T) {
	dir := t.TempDir()
	writeGraph(t, dir, "d.json", []string{"a", "b", "a", "b"})
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := reach.BuildCount()
	const workers = 16
	var wg sync.WaitGroup
	dss := make([]*Dataset, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ds, err := c.Acquire("d")
			if err != nil {
				t.Error(err)
				return
			}
			dss[w] = ds
		}(w)
	}
	wg.Wait()
	if built := reach.BuildCount() - before; built != 1 {
		t.Fatalf("%d index builds for %d concurrent acquires, want 1", built, workers)
	}
	for _, ds := range dss {
		if ds != nil {
			ds.Release()
		}
	}
}

// TestSnapshotPreferredAndZeroRebuild checks AutoSnapshot writes a
// snapshot and a fresh catalog revives from it without construction.
func TestSnapshotPreferredAndZeroRebuild(t *testing.T) {
	dir := t.TempDir()
	writeGraph(t, dir, "d.json", []string{"a", "b", "c", "a"})
	c1, err := Open(dir, Options{AutoSnapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c1.Acquire("d")
	if err != nil {
		t.Fatal(err)
	}
	kind := ds.Engine.IndexKind()
	firstEngine := ds.Engine
	ds.Release()
	if _, err := os.Stat(filepath.Join(dir, "d.snap")); err != nil {
		t.Fatalf("AutoSnapshot wrote no snapshot: %v", err)
	}

	// The just-built engine must survive the snapshot write: the next
	// Acquire must reuse it, not mistake the .json -> .snap source
	// change for a hot reload.
	again, err := c1.Acquire("d")
	if err != nil {
		t.Fatal(err)
	}
	if again.Engine != firstEngine {
		t.Fatal("Acquire after AutoSnapshot discarded the just-built engine")
	}
	again.Release()

	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := reach.BuildCount()
	ds2, err := c2.Acquire("d")
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Release()
	if built := reach.BuildCount() - before; built != 0 {
		t.Fatalf("snapshot acquire performed %d index builds, want 0", built)
	}
	if !ds2.FromSnapshot || ds2.Engine.IndexKind() != kind {
		t.Fatalf("FromSnapshot=%v kind=%q want true/%q", ds2.FromSnapshot, ds2.Engine.IndexKind(), kind)
	}
}

// TestLegacyStatsSidecarIsNotADataset covers data directories written by
// binaries that kept a <name>.stats.json cardinality sidecar next to
// each dataset: ".json" is a dataset suffix, so the listing must keep
// skipping the sidecar, and a load neither rewrites it nor leaves
// anything else behind.
func TestLegacyStatsSidecarIsNotADataset(t *testing.T) {
	dir := t.TempDir()
	writeGraph(t, dir, "x.json", []string{"a", "b"})
	c1, err := Open(dir, Options{AutoSnapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c1.Acquire("x") // writes x.snap
	if err != nil {
		t.Fatal(err)
	}
	ds.Release()
	c1.Close()
	if err := os.Remove(filepath.Join(dir, "x.json")); err != nil {
		t.Fatal(err)
	}
	sidecarPath := filepath.Join(dir, "x.stats.json")
	sidecar := []byte(`{"nodes": 2, "edges": 1, "labels": {"a": 1, "b": 1}, "generation": 1}`)
	if err := os.WriteFile(sidecarPath, sidecar, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if names, err := c2.Names(); err != nil || !reflect.DeepEqual(names, []string{"x"}) {
		t.Fatalf("Names() = %v, %v, want [x]", names, err)
	}
	ds, err = c2.Acquire("x")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Release()
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if want := []string{filepath.Join(dir, "x.snap"), sidecarPath}; !reflect.DeepEqual(files, want) {
		t.Errorf("loading x left %v in the directory, want %v", files, want)
	}
	if got, err := os.ReadFile(sidecarPath); err != nil || !bytes.Equal(got, sidecar) {
		t.Errorf("loading x rewrote the legacy sidecar: %q, %v", got, err)
	}
}

// TestHotReload checks that a changed source file swaps the engine for
// new acquirers while old holders keep theirs, and that List reports
// cache state.
func TestHotReload(t *testing.T) {
	dir := t.TempDir()
	writeGraph(t, dir, "d.json", []string{"a", "b"})
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	old, err := c.Acquire("d")
	if err != nil {
		t.Fatal(err)
	}
	if old.Nodes() != 2 {
		t.Fatalf("first load: n=%d", old.Nodes())
	}

	// Rewrite the source with a different shape and a future mtime (the
	// rewrite may land within the same filesystem-timestamp tick).
	writeGraph(t, dir, "d.json", []string{"a", "b", "c"})
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(filepath.Join(dir, "d.json"), future, future); err != nil {
		t.Fatal(err)
	}

	fresh, err := c.Acquire("d")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Nodes() != 3 {
		t.Fatalf("hot reload: n=%d, want 3", fresh.Nodes())
	}
	if old.Nodes() != 2 || old.Engine == fresh.Engine {
		t.Fatal("old holder lost its engine across the hot reload")
	}
	if fresh.Generation <= old.Generation {
		t.Fatalf("hot reload did not bump the generation: %d -> %d", old.Generation, fresh.Generation)
	}

	infos, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || !infos[0].Loaded || infos[0].Nodes != 3 || infos[0].Refs != 1 {
		t.Fatalf("List = %+v", infos)
	}
	old.Release()
	fresh.Release()

	// Explicit Reload also swaps (and bumps the generation).
	e1, _ := c.Acquire("d")
	c.Reload("d")
	e2, _ := c.Acquire("d")
	if e1.Engine == e2.Engine {
		t.Fatal("Reload did not swap the engine")
	}
	if e2.Generation <= e1.Generation {
		t.Fatalf("Reload did not bump the generation: %d -> %d", e1.Generation, e2.Generation)
	}
	e1.Release()
	e2.Release()
}

// TestGenerations pins the generation contract result caches key on:
// unique per loaded entry, stable across shared Acquires, strictly
// increasing across reloads, and reported by List.
func TestGenerations(t *testing.T) {
	dir := t.TempDir()
	writeGraph(t, dir, "x.json", []string{"a", "b"})
	writeGraph(t, dir, "y.json", []string{"a", "b"})
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x1, err := c.Acquire("x")
	if err != nil {
		t.Fatal(err)
	}
	x2, err := c.Acquire("x")
	if err != nil {
		t.Fatal(err)
	}
	if x1.Generation == 0 || x1.Generation != x2.Generation {
		t.Fatalf("shared acquires disagree on generation: %d vs %d", x1.Generation, x2.Generation)
	}
	y, err := c.Acquire("y")
	if err != nil {
		t.Fatal(err)
	}
	if y.Generation == x1.Generation {
		t.Fatalf("distinct datasets share generation %d", y.Generation)
	}
	infos, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		want := x1.Generation
		if info.Name == "y" {
			want = y.Generation
		}
		if info.Generation != want {
			t.Fatalf("List generation for %s = %d, want %d", info.Name, info.Generation, want)
		}
	}
	c.Reload("x")
	x3, err := c.Acquire("x")
	if err != nil {
		t.Fatal(err)
	}
	if x3.Generation <= x1.Generation || x3.Generation <= y.Generation {
		t.Fatalf("reloaded generation %d not beyond %d/%d", x3.Generation, x1.Generation, y.Generation)
	}
	x1.Release()
	x2.Release()
	y.Release()
	x3.Release()
}

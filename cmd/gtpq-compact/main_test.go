package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gtpq/internal/catalog"
	"gtpq/internal/delta"
	"gtpq/internal/graph"
	"gtpq/internal/reach"
	"gtpq/internal/snapshot"
)

// runAsMain makes the test binary run main instead of the tests when
// it is re-executed by runCompact.
const runAsMain = "GTPQ_COMPACT_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCompact runs gtpq-compact with args and returns its log output.
func runCompact(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("gtpq-compact %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// writeDataset saves a three-node chain as dir/name.snap.
func writeDataset(t *testing.T, dir, name string) {
	t.Helper()
	g := graph.New(3, 2)
	a, b, c := g.AddNode("a", nil), g.AddNode("b", nil), g.AddNode("c", nil)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	h, err := reach.Build(reach.DefaultKind, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.SaveFile(filepath.Join(dir, name+".snap"), g, h); err != nil {
		t.Fatal(err)
	}
}

// fixture returns a directory holding "live", a flat dataset with two
// pending batches (two nodes, two edges) in its delta log, and "clean",
// one without a log.
func fixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeDataset(t, dir, "live")
	writeDataset(t, dir, "clean")
	cat, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ds, err := cat.ApplyDelta("live", delta.Batch{
			Nodes: []delta.NodeAdd{{Label: "d"}},
			Edges: []delta.EdgeAdd{{From: 2, To: graph.NodeID(3 + i)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		ds.Release()
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "live"+delta.LogSuffix)); err != nil {
		t.Fatalf("fixture has no delta log: %v", err)
	}
	return dir
}

// checkFolded asserts that live's log was folded into a rewritten
// snapshot a fresh catalog serves with nothing pending.
func checkFolded(t *testing.T, dir string, before []byte) {
	t.Helper()
	for _, suffix := range []string{delta.LogSuffix, delta.FoldMarkerSuffix} {
		if _, err := os.Stat(filepath.Join(dir, "live"+suffix)); !os.IsNotExist(err) {
			t.Errorf("live%s still present after compaction (stat: %v)", suffix, err)
		}
	}
	after, err := os.ReadFile(filepath.Join(dir, "live.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(after, before) {
		t.Error("live.snap was not rewritten")
	}
	cat, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	ds, err := cat.Acquire("live")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Release()
	if ds.PendingDeltas != 0 || ds.Nodes() != 5 || ds.Edges() != 4 {
		t.Errorf("reloaded live: %d pending, %d nodes, %d edges; want 0, 5, 4",
			ds.PendingDeltas, ds.Nodes(), ds.Edges())
	}
}

func TestCompactNamedDataset(t *testing.T) {
	dir := fixture(t)
	before, err := os.ReadFile(filepath.Join(dir, "live.snap"))
	if err != nil {
		t.Fatal(err)
	}
	out := runCompact(t, "-data", dir, "live")
	if !strings.Contains(out, "live: folded 4 pending mutations") || !strings.Contains(out, "compacted 1 of 1 dataset(s)") {
		t.Errorf("unexpected output:\n%s", out)
	}
	checkFolded(t, dir, before)
}

func TestCompactAll(t *testing.T) {
	dir := fixture(t)
	before, err := os.ReadFile(filepath.Join(dir, "live.snap"))
	if err != nil {
		t.Fatal(err)
	}
	out := runCompact(t, "-data", dir, "-all")
	for _, want := range []string{"clean: no pending deltas", "live: folded 4 pending mutations", "compacted 1 of 2 dataset(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	checkFolded(t, dir, before)
}

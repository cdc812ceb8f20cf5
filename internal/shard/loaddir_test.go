package shard

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/gen"
)

func TestLoadDirRejectsImplausibleTotals(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := gen.Forest(r, 3, 8, 10, []string{"a"})
	plan, _ := Partition(g, 2, ModeWCC)
	dir := t.TempDir()
	if _, err := WriteDir(dir, "ds", g, plan, Options{}); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, ManifestName)
	blob, _ := os.ReadFile(manPath)
	var m map[string]interface{}
	json.Unmarshal(blob, &m)
	m["total_nodes"] = float64(1 << 60)
	mut, _ := json.Marshal(m)
	os.WriteFile(manPath, mut, 0o644)
	_, _, err := LoadDir(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "shards hold") {
		t.Fatalf("huge total_nodes: err = %v", err)
	}
}

// allocatedBy returns the bytes f allocates on the heap (cumulative,
// so freed garbage counts too).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// loadBudget bounds what loading a tiny shard directory may allocate,
// however large the sizes its manifest claims.
const loadBudget = 64 << 20

// oversizedManifest claims 1.5 billion nodes for a shard whose files
// are one byte each.
const oversizedManifest = `{
  "format": "gtpq-shard",
  "version": 1,
  "name": "ds",
  "mode": "wcc",
  "index": "threehop",
  "total_nodes": 1500000000,
  "total_edges": 0,
  "replicated": 0,
  "shards": [
    {
      "snap": "shard-0000.snap",
      "snap_sha256": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
      "ids": "shard-0000.ids",
      "ids_sha256": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
      "nodes": 1500000000,
      "edges": 0
    }
  ]
}
`

// TestLoadDirOversizedClaimAllocatesLittle pins that LoadDir sizes
// nothing from manifest claims before the shard files back them: a
// manifest claiming 1.5 billion nodes next to two 1-byte shard files
// fails on the content hash without allocating for the claim.
func TestLoadDirOversizedClaimAllocatesLittle(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		ManifestName:      oversizedManifest,
		"shard-0000.snap": "x",
		"shard-0000.ids":  "x",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	alloc := allocatedBy(func() { _, _, err = LoadDir(dir, Options{}) })
	if err == nil || !strings.Contains(err.Error(), "content hash") {
		t.Fatalf("err = %v, want a content-hash failure", err)
	}
	if alloc > loadBudget {
		t.Fatalf("LoadDir allocated %d MiB before failing", alloc>>20)
	}
}

// hashManifest is a manifest as hash-mode builds wrote it.
const hashManifest = `{
  "format": "gtpq-shard",
  "version": 1,
  "name": "ds",
  "mode": "hash",
  "index": "threehop",
  "total_nodes": 20,
  "total_edges": 30,
  "replicated": 7,
  "shards": [
    {"snap": "shard-0000.snap", "snap_sha256": "00", "ids": "shard-0000.ids", "ids_sha256": "00", "nodes": 14, "edges": 21},
    {"snap": "shard-0001.snap", "snap_sha256": "00", "ids": "shard-0001.ids", "ids_sha256": "00", "nodes": 13, "edges": 19}
  ]
}
`

// TestReadManifestRejectsHashMode checks that a hash-mode directory
// fails to load with a message that says how to fix it, and that a wcc
// manifest claiming replicated vertices is rejected too.
func TestReadManifestRejectsHashMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	if err := os.WriteFile(path, []byte(hashManifest), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadDir(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "re-run gtpq-shard") {
		t.Fatalf("hash manifest: err = %v", err)
	}
	wccReplicated := strings.Replace(hashManifest, `"mode": "hash"`, `"mode": "wcc"`, 1)
	if err := os.WriteFile(path, []byte(wccReplicated), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil || !strings.Contains(err.Error(), "replicated") {
		t.Fatalf("wcc manifest with replicated 7: err = %v", err)
	}
}

// FuzzLoadDir fuzzes manifest.json in two fixed directories of one
// forest, written as 2 shards and as 1: each input is the manifest of
// both. LoadDir must never panic, never allocate more than loadBudget,
// and a manifest either directory accepts must serve exactly the
// pristine answers.
func FuzzLoadDir(f *testing.F) {
	g := gen.Forest(rand.New(rand.NewSource(11)), 3, 10, 20, []string{"a", "b"})
	var dirs []string
	var pristine [][]byte
	for _, k := range []int{2, 1} {
		plan, err := Partition(g, k, ModeWCC)
		if err != nil {
			f.Fatal(err)
		}
		dir := f.TempDir()
		if _, err := WriteDir(dir, "ds", g, plan, Options{}); err != nil {
			f.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err != nil {
			f.Fatal(err)
		}
		dirs = append(dirs, dir)
		pristine = append(pristine, blob)
	}
	se, _, err := LoadDir(dirs[0], Options{})
	if err != nil {
		f.Fatal(err)
	}
	q := core.NewQuery()
	x := q.AddRoot("x", core.Label("a"))
	q.SetOutput(x)
	q.SetOutput(q.AddNode("y", core.Backbone, x, core.AD, core.Label("b")))
	want := evalAnswer(f, se, q)
	if want.Len() == 0 {
		f.Fatal("fixture query has no answers")
	}

	f.Add(pristine[0])
	var m map[string]interface{}
	if err := json.Unmarshal(pristine[0], &m); err != nil {
		f.Fatal(err)
	}
	m["total_nodes"] = 1_500_000_000
	m["shards"].([]interface{})[0].(map[string]interface{})["nodes"] = 1_500_000_000
	oversized, _ := json.Marshal(m)
	f.Add(oversized)
	f.Add([]byte(strings.Replace(string(pristine[0]), `"mode": "wcc"`, `"mode": "hash"`, 1)))
	f.Add(pristine[1]) // the one-shard directory's own manifest

	f.Fuzz(func(t *testing.T, manifest []byte) {
		for _, dir := range dirs {
			if err := os.WriteFile(filepath.Join(dir, ManifestName), manifest, 0o644); err != nil {
				t.Fatal(err)
			}
			var se *ShardedEngine
			var err error
			if alloc := allocatedBy(func() { se, _, err = LoadDir(dir, Options{}) }); alloc > loadBudget {
				t.Fatalf("LoadDir allocated %d MiB", alloc>>20)
			}
			if err != nil {
				continue
			}
			if got := evalAnswer(t, se, q); !want.Equal(got) {
				t.Fatalf("accepted manifest serves different answers\n%s", manifest)
			}
		}
	})
}

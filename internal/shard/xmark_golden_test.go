package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"gtpq/internal/graph"
	"gtpq/internal/xmark"
)

// xmarkForest merges sites independently generated XMark sites of
// persons persons each into one frozen graph, the way the stream_rows
// benchmark workload builds its data: one weakly-connected component
// per site, with attributes, string values repeated across sites, and
// both edge kinds.
func xmarkForest(sites, persons int) *graph.Graph {
	out := graph.New(0, 0)
	for s := 0; s < sites; s++ {
		g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: persons, Seed: 7 + int64(s)})
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

// dirSums returns the SHA-256 of every file in dir, by name.
func dirSums(t *testing.T, dir string) map[string]string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]string{}
	for _, de := range des {
		if sums[de.Name()], err = fileSHA256(filepath.Join(dir, de.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return sums
}

// fileSHA256 returns the lower-case hex SHA-256 of a file's contents.
func fileSHA256(path string) (string, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// xmarkGolden pins the SHA-256 of every file WriteDir writes for the
// 4-site, 40-person XMark forest at K=3 and K=4.
var xmarkGolden = map[int]map[string]string{
	3: {
		"manifest.json":   "1fc2d7c37bb555c2038d28cd657a47215fdb206ee3b837547f32e58926ae6307",
		"shard-0000.ids":  "2387844ddd608b1e125c4331e54134089dccfb542b71dcfeb6f15e186b191a39",
		"shard-0000.snap": "7f58b9f3c3a31e36f4b900b4f0a5f8e82a708584f3e16fd4a5ba91ea6c5f3a52",
		"shard-0001.ids":  "02b8fc493b389c146bc962fae032d71ce844b9becf7721a45b683ed3eed6ec15",
		"shard-0001.snap": "038d8bcf985902edebb681c66452f6687ad3f51ee5e3167979c1086ea6ed2255",
		"shard-0002.ids":  "589e87fb53eb9d16a5d9f8299f877709957301dab936846901b5a11e217006ad",
		"shard-0002.snap": "a0c197ec7f9350e9c5bb8fd5fc679f4ec6b8ac184205fbc3af5c03464b674537",
	},
	4: {
		"manifest.json":   "f9db0777db3748425904964aab50086f437a3a2dac9f457e714c0b3209799b8c",
		"shard-0000.ids":  "2387844ddd608b1e125c4331e54134089dccfb542b71dcfeb6f15e186b191a39",
		"shard-0000.snap": "7f58b9f3c3a31e36f4b900b4f0a5f8e82a708584f3e16fd4a5ba91ea6c5f3a52",
		"shard-0001.ids":  "02b8fc493b389c146bc962fae032d71ce844b9becf7721a45b683ed3eed6ec15",
		"shard-0001.snap": "038d8bcf985902edebb681c66452f6687ad3f51ee5e3167979c1086ea6ed2255",
		"shard-0002.ids":  "54b363bc4d8d535f9bc748249710965b654d99f69d01f89ee3a4ffae746e0292",
		"shard-0002.snap": "4d8498adc3d0bfbff506d1af7334509f48b36dfa772c700c4d5b0109a1d34f44",
		"shard-0003.ids":  "8bf0cd035a563529b7c653af84aab89acf71e8116f8845e4696c2675acf3bdb8",
		"shard-0003.snap": "5532b0355521fc0e4265a85583fb26515718d6e9e411619312e1ba13167b3ecc",
	},
}

// TestWriteDirGoldenXMark pins the bytes of a shard directory over a
// multi-site XMark forest (the stream_rows data at tiny scale), at K=3
// (one shard holds two sites) and K=4 (one site per shard), and checks
// that they do not depend on how many shard workers write it: every
// file is the same at GOMAXPROCS 1 to 4, so at every width from 1 to K.
func TestWriteDirGoldenXMark(t *testing.T) {
	g := xmarkForest(4, 40)
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, k := range []int{3, 4} {
		plan, err := Partition(g, k, ModeWCC)
		if err != nil {
			t.Fatal(err)
		}
		want := xmarkGolden[k]
		for procs := 1; procs <= 4; procs++ {
			runtime.GOMAXPROCS(procs)
			dir := t.TempDir()
			if _, err := WriteDir(dir, "forest", g, plan, Options{}); err != nil {
				t.Fatal(err)
			}
			got := dirSums(t, dir)
			if len(got) != len(want) {
				t.Errorf("K=%d procs=%d: wrote %d files, want %d", k, procs, len(got), len(want))
			}
			for n, sum := range got {
				if sum != want[n] {
					t.Errorf("K=%d procs=%d: %s: sha256 %s, want %q", k, procs, n, sum, want[n])
				}
			}
		}
	}
}

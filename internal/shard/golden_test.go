package shard

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gtpq/internal/graph"
)

// goldenForest is a fixed three-component forest (sizes 4, 3, 3) with
// numeric and string attributes and both edge kinds. Components
// interleave in id order, so every shard's id sidecar remaps
// non-trivially; at K=4 the fourth shard is empty.
func goldenForest() *graph.Graph {
	labels := []string{"a", "b", "c", "a", "b", "c", "a", "b", "d", "c"}
	g := graph.New(len(labels), 8)
	for i, l := range labels {
		var at graph.Attrs
		switch {
		case i%3 == 0:
			at = graph.Attrs{"year": graph.NumV(float64(2000 + i))}
		case i%4 == 1:
			at = graph.Attrs{"name": graph.StrV(l + "x")}
		}
		g.AddNode(l, at)
	}
	// Components {0,3,6,9}, {1,4,7}, {2,5,8}.
	g.AddEdge(0, 3)
	g.AddEdge(3, 6)
	g.AddCrossEdge(0, 6)
	g.AddEdge(6, 9)
	g.AddEdge(1, 4)
	g.AddCrossEdge(4, 7)
	g.AddEdge(2, 5)
	g.AddEdge(2, 8)
	g.Freeze()
	return g
}

// TestWriteDirGolden pins the on-disk format: WriteDir over the golden
// forest must produce byte-identical files to the ones recorded here
// (SHA-256 of every file, manifest included), so newer builds write the
// same bytes. The hashes are those of version-2 snapshots; that
// directories written with version-1 snapshots keep loading is checked
// on a fixture an older build wrote (internal/snapshot/testdata).
func TestWriteDirGolden(t *testing.T) {
	g := goldenForest()
	plan, err := Partition(g, 4, ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteDir(dir, "golden", g, plan, Options{}); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"manifest.json":   "962daef85d1be3dcb003f665597425679f34382f63db397879178e42492c7ce8",
		"shard-0000.ids":  "6c9dc54e2fb8bd74bdf4047ae75db85dc06f52d82e8653e5751d723ab8bb67f5",
		"shard-0000.snap": "eb735164d5932dcc0ea386e79702176151d849661e3b20ebac184d007c82e36a",
		"shard-0001.ids":  "18d83e3e1cc3d9714d8ec58cf4aaaf39674b21997c4e5839efb43c3c2def815a",
		"shard-0001.snap": "8d639b11746bb3b65010a26baf15076b3f6f50081ccd68f60f35c3eb7ee06a8e",
		"shard-0002.ids":  "57e60f2fc9014a923e8a6c3646d56e8831a4209671d5ca2b33d6316f8e695881",
		"shard-0002.snap": "6db8cef03a42a602bc5abb302471baf36458ff55e7c6d316c39bc76d82cbb0d1",
		"shard-0003.ids":  "19914f522949eb19668515da2983b5f6c996951d98cd48d4a7a8aa65df6efdc5",
		"shard-0003.snap": "86b445e6422d782dbe5ec3fe551aa914ed7f7a67caf39067c8049a74c34dd60a",
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	sort.Strings(names)
	if len(names) != len(want) {
		t.Errorf("wrote %d files %v, want %d", len(names), names, len(want))
	}
	for _, n := range names {
		sum, err := fileSHA256(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		if sum != want[n] {
			t.Errorf("%s: sha256 %s, want %q", n, sum, want[n])
		}
	}
}

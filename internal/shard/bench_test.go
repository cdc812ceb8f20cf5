package shard

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gtpq/internal/graph"
)

var (
	benchForestOnce sync.Once
	benchForest     *graph.Graph
)

// streamForest is the stream_rows benchmark workload's data: 8 XMark
// sites of 1,000 persons each (201,672 nodes), built once per process.
func streamForest() *graph.Graph {
	benchForestOnce.Do(func() { benchForest = xmarkForest(8, 1000) })
	return benchForest
}

// writeStreamDir writes the stream_rows forest as 4 wcc shards under a
// temporary directory and returns it with the plan and the bytes
// written.
func writeStreamDir(b *testing.B) (string, *Plan, int64) {
	g := streamForest()
	plan, err := Partition(g, 4, ModeWCC)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if _, err := WriteDir(dir, "forest", g, plan, Options{}); err != nil {
		b.Fatal(err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var size int64
	for _, de := range des {
		fi, err := os.Stat(filepath.Join(dir, de.Name()))
		if err != nil {
			b.Fatal(err)
		}
		size += fi.Size()
	}
	return dir, plan, size
}

// BenchmarkWriteDir times WriteDir of the stream_rows forest at K=4:
// cutting the shards, building their 3-hop indexes and writing the
// directory, GOMAXPROCS shards (so -cpu sets it) at a time.
func BenchmarkWriteDir(b *testing.B) {
	dir, plan, size := writeStreamDir(b)
	b.SetBytes(size)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := WriteDir(dir, "forest", streamForest(), plan, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadDir times LoadDir of that directory: reading, hashing and
// decoding each shard, and the partition checks.
func BenchmarkLoadDir(b *testing.B) {
	dir, _, size := writeStreamDir(b)
	b.SetBytes(size)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := LoadDir(dir, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

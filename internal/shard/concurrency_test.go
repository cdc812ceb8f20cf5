package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gtpq/internal/graph"
)

// TestForEachShard checks the shard loop: at most workers calls run at
// once, every call has returned when it returns, and the error is the
// lowest failing shard's, with every shard below it run.
func TestForEachShard(t *testing.T) {
	for k := 1; k <= 6; k++ {
		for workers := 1; workers <= k; workers++ {
			for _, failing := range [][]int{nil, {k - 1}, {1, 3}} {
				bad := map[int]bool{}
				for _, i := range failing {
					bad[i] = true
				}
				var running, peak atomic.Int32
				ran := make([]atomic.Bool, k)
				err := forEachShard(k, workers, func(i int) error {
					n := running.Add(1)
					for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
					}
					time.Sleep(time.Millisecond)
					ran[i].Store(true)
					running.Add(-1)
					if bad[i] {
						return fmt.Errorf("shard %d failed", i)
					}
					return nil
				})
				if running.Load() != 0 {
					t.Fatalf("k=%d workers=%d: %d calls still running after return", k, workers, running.Load())
				}
				if int(peak.Load()) > workers {
					t.Fatalf("k=%d workers=%d: %d calls ran at once", k, workers, peak.Load())
				}
				lowest := k
				for _, i := range failing {
					if i < k {
						lowest = min(lowest, i)
					}
				}
				switch {
				case lowest == k && err != nil:
					t.Fatalf("k=%d workers=%d: err = %v, want nil", k, workers, err)
				case lowest < k && (err == nil || err.Error() != fmt.Sprintf("shard %d failed", lowest)):
					t.Fatalf("k=%d workers=%d failing %v: err = %v, want shard %d's", k, workers, failing, err, lowest)
				}
				for i := 0; i < min(lowest+1, k); i++ {
					if !ran[i].Load() {
						t.Fatalf("k=%d workers=%d failing %v: shard %d never ran", k, workers, failing, i)
					}
				}
			}
		}
	}
}

// setProcs sets GOMAXPROCS, the width of every shard loop, to n until
// t ends.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// settles fails unless the goroutine count is back at baseline
// shortly: a shard loop joins its goroutines before returning, and
// only their exit after the join may still be under way.
func settles(t *testing.T, baseline int, what string) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines alive, baseline %d:\n%s", what, n, baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestLoadDirNamesLowestCorruptShard corrupts shards 1 and 3 of a
// 4-shard directory: at every worker count LoadDir must fail with the
// message a shard-by-shard load gives for shard 1, and leave no
// goroutine behind.
func TestLoadDirNamesLowestCorruptShard(t *testing.T) {
	g := xmarkForest(4, 40)
	plan, err := Partition(g, 4, ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	man, err := WriteDir(dir, "forest", g, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 3} {
		path := filepath.Join(dir, man.Shards[i].Snap)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)/2] ^= 0xff
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(filepath.Join(dir, man.Shards[1].Snap))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	want := fmt.Sprintf("shard: %s: shard 1: %s: content hash %s does not match manifest %s",
		dir, man.Shards[1].Snap, hex.EncodeToString(sum[:]), man.Shards[1].SnapSHA256)
	for workers := 1; workers <= 4; workers++ {
		setProcs(t, workers)
		baseline := runtime.NumGoroutine()
		_, _, err := LoadDir(dir, Options{})
		if err == nil || err.Error() != want {
			t.Fatalf("workers=%d: err = %v\nwant %s", workers, err, want)
		}
		settles(t, baseline, fmt.Sprintf("LoadDir, workers=%d", workers))
	}
}

// TestNewEngineBuildFailureNamesLowestShard builds a plan whose shards
// 0 and 1 each hold a path too long for the tc index: at every worker
// count NewEngine must fail on shard 0 and leave no goroutine behind.
func TestNewEngineBuildFailureNamesLowestShard(t *testing.T) {
	g := graph.New(0, 0)
	for _, n := range []int{20001, 20001, 5, 5} {
		base := graph.NodeID(g.N())
		for i := 0; i < n; i++ {
			g.AddNode("a", nil)
		}
		for i := 1; i < n; i++ {
			g.AddEdge(base+graph.NodeID(i-1), base+graph.NodeID(i))
		}
	}
	plan, err := Partition(g, 4, ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Parts[0]) != 20001 || len(plan.Parts[1]) != 20001 {
		t.Fatalf("plan put the long paths on shards of %d and %d nodes", len(plan.Parts[0]), len(plan.Parts[1]))
	}
	for workers := 1; workers <= 4; workers++ {
		setProcs(t, workers)
		baseline := runtime.NumGoroutine()
		_, err := NewEngine(g, plan, Options{Index: "tc"})
		if err == nil || !strings.HasPrefix(err.Error(), "shard 0: ") || errors.Unwrap(err) == nil {
			t.Fatalf("workers=%d: err = %v, want shard 0's wrapped build error", workers, err)
		}
		settles(t, baseline, fmt.Sprintf("NewEngine, workers=%d", workers))
	}
}

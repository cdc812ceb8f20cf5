package shard

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"gtpq/internal/core"
	"gtpq/internal/graph"
)

// chainForest builds `blocks` disjoint paths of n nodes, all labeled
// "a": each block's pair query enumeration is Θ(n²) tuples, so every
// shard has a long evaluation to cancel into.
func chainForest(blocks, n int) *graph.Graph {
	g := graph.New(blocks*n, blocks*(n-1))
	for b := 0; b < blocks; b++ {
		for i := 0; i < n; i++ {
			g.AddNode("a", nil)
		}
		base := graph.NodeID(b * n)
		for i := 0; i < n-1; i++ {
			g.AddEdge(base+graph.NodeID(i), base+graph.NodeID(i+1))
		}
	}
	g.Freeze()
	return g
}

func pairQuery() *core.Query {
	q := core.NewQuery()
	x := q.AddRoot("x", core.Label("a"))
	y := q.AddNode("y", core.Backbone, x, core.AD, core.Label("a"))
	q.SetOutput(x)
	q.SetOutput(y)
	return q
}

// waitForGoroutines polls until the goroutine count falls back to the
// baseline (plus slack for runtime noise) or the deadline passes.
func waitForGoroutines(t *testing.T, baseline int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines alive, baseline %d:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardedCancellationPropagatesAndLeaksNothing runs parallel
// sharded evaluations and cancels them mid-flight: every call must
// return ctx's error promptly (proving every shard aborted — the full
// enumeration is orders of magnitude longer than the deadline), every
// shard must have been dispatched to, and no shard worker goroutine
// may outlive its call. Run under -race in CI.
func TestShardedCancellationPropagatesAndLeaksNothing(t *testing.T) {
	const blocks = 4
	g := chainForest(blocks, 900)
	plan, err := Partition(g, blocks, ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, blocks)
	se, err := NewEngine(g, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := pairQuery()

	baseline := runtime.NumGoroutine()
	const callers = 6
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			ans, _, err := se.EvalStatsCtx(ctx, q)
			if ans != nil {
				errs[i] = errors.New("cancelled evaluation returned a partial answer")
				return
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("caller %d: err = %v, want context.DeadlineExceeded", i, err)
		}
	}
	// The full enumeration is ~blocks × 0.4M tuples; sub-second return
	// proves the cancellation reached every shard's evaluation.
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled calls took %v", elapsed)
	}
	for si, st := range se.ShardStats() {
		if st.Evals != callers {
			t.Fatalf("shard %d saw %d evals, want %d (cancellation must still dispatch and drain every shard)",
				si, st.Evals, callers)
		}
	}
	waitForGoroutines(t, baseline, 5*time.Second)

	// An already-cancelled context must not leave workers behind either.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := se.EvalStatsCtx(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v", err)
	}
	waitForGoroutines(t, baseline, 5*time.Second)

	// And an uncancelled evaluation on the same engine still works
	// (single-output: cheap even on the big chains).
	small := core.NewQuery()
	small.SetOutput(small.AddRoot("x", core.Label("a")))
	ans, _, err := se.EvalStatsCtx(context.Background(), small)
	if err != nil || ans.Len() != g.N() {
		t.Fatalf("post-cancel evaluation: %d rows err=%v, want %d", ans.Len(), err, g.N())
	}
}

// TestShardedConcurrentEval checks many goroutines sharing one sharded
// engine agree on the answer (the reentrancy contract), under -race.
func TestShardedConcurrentEval(t *testing.T) {
	g := chainForest(3, 40)
	plan, err := Partition(g, 3, ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 2)
	se, err := NewEngine(g, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := pairQuery()
	want := evalAnswer(t, se, q)
	if want.Len() == 0 {
		t.Fatal("empty baseline answer")
	}
	const workers = 8
	var wg sync.WaitGroup
	bad := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got, _, err := se.EvalStatsCtx(context.Background(), q); err != nil || !want.Equal(got) {
					bad <- "concurrent answer diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Fatal(msg)
	}
}

package shard

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gtpq/internal/core"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/reach"
)

// stableGoroutines samples the goroutine count after a settle period;
// used as a goleak-style before/after guard around cursor lifecycles.
func stableGoroutines(t *testing.T) int {
	t.Helper()
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// evalAnswer materializes q on se, failing t on an error.
func evalAnswer(t testing.TB, se *ShardedEngine, q *core.Query) *core.Answer {
	t.Helper()
	ans, _, err := se.EvalStatsCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

// TestShardedCursorMatchesEval checks the streamed k-way merge returns
// exactly the oracle's answer (core.EvalNaive over the transitive
// closure) across shard counts and random queries.
func TestShardedCursorMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for _, k := range []int{1, 2, 4} {
		g := randomTestGraph(r, 1)
		plan, err := Partition(g, k, ModeWCC)
		if err != nil {
			t.Fatal(err)
		}
		se, err := NewEngine(g, plan, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tc := reach.NewTC(g)
		for qi := 0; qi < 6; qi++ {
			q := gen.Query(r, 2+r.Intn(5), testLabels, true, true)
			want := core.EvalNaive(g, tc, q)
			cur, _, err := se.EvalCursor(context.Background(), q)
			if err != nil {
				t.Fatalf("k=%d query %d: %v", k, qi, err)
			}
			got, err := gtea.Collect(cur)
			cur.Close()
			if err != nil {
				t.Fatalf("k=%d query %d: drain: %v", k, qi, err)
			}
			if !want.Equal(got) {
				t.Fatalf("k=%d query %d: merged stream differs\nquery:\n%s\nwant %v\ngot  %v", k, qi, q, want, got)
			}
		}
	}
}

// shardPairSetup builds a sharded engine over one long chain (every
// prefix pair is a result, so the merged stream is long) plus the
// two-output query over it.
func shardPairSetup(t *testing.T, n, k int) (*ShardedEngine, *core.Query) {
	t.Helper()
	g := gen.Forest(rand.New(rand.NewSource(7)), k, n/k, n/k, []string{"a"})
	plan, err := Partition(g, k, ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewEngine(g, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := core.NewQuery()
	x := q.AddRoot("x", core.Label("a"))
	y := q.AddNode("y", core.Backbone, x, core.AD, core.Label("a"))
	q.SetOutput(x)
	q.SetOutput(y)
	return se, q
}

// TestShardedCursorAbandonLeaksNothing abandons a half-consumed merge
// cursor and checks no scatter worker (or anything else) outlives the
// Close: goroutine counts return to the pre-cursor baseline, and the
// engine still answers correctly afterwards (pooled per-shard contexts
// were released).
func TestShardedCursorAbandonLeaksNothing(t *testing.T) {
	se, q := shardPairSetup(t, 120, 4)
	want := evalAnswer(t, se, q)
	before := stableGoroutines(t)
	for trial := 0; trial < 5; trial++ {
		cur, _, err := se.EvalCursor(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			cur.Next()
		}
		cur.Close()
		if _, ok := cur.Next(); ok {
			t.Fatal("Next returned a row after Close")
		}
	}
	after := stableGoroutines(t)
	if after > before {
		t.Fatalf("goroutines grew from %d to %d across abandoned cursors", before, after)
	}
	if got := evalAnswer(t, se, q); !want.Equal(got) {
		t.Fatal("evaluation after abandoned cursors differs")
	}
}

// TestShardedCursorCancelMidDrain cancels the scatter context mid-drain
// and checks the stream terminates with the context error instead of
// hanging or silently truncating as a clean end.
func TestShardedCursorCancelMidDrain(t *testing.T) {
	se, q := shardPairSetup(t, 2000, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cur, _, err := se.EvalCursor(ctx, q)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	defer cur.Close()
	if _, ok := cur.Next(); !ok {
		cancel()
		t.Skip("result too small to cancel mid-drain")
	}
	cancel()
	n := 0
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
		if n++; n > 100_000 {
			t.Fatal("drain did not stop after cancel")
		}
	}
	if !errors.Is(cur.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", cur.Err())
	}
}

// TestMergeCursorsDirect exercises newMergeCursor over answer-backed
// cursors with disjoint rows: global order across children after the
// remap, an empty child, onClose after a full drain, and an idempotent
// Close.
func TestMergeCursorsDirect(t *testing.T) {
	mk := func(tuples ...[2]graph.NodeID) gtea.Cursor {
		ans := core.NewAnswer([]int{0, 1})
		for _, tp := range tuples {
			ans.Add(tp[:])
		}
		ans.Canonicalize()
		return gtea.NewAnswerCursor(ans)
	}
	closed := 0
	m := newMergeCursor([]int{0, 1},
		[]gtea.Cursor{
			mk([2]graph.NodeID{0, 1}, [2]graph.NodeID{2, 3}), // globals 1, 3, 5, 6
			mk([2]graph.NodeID{0, 1}, [2]graph.NodeID{1, 2}), // globals 2, 4, 9
			mk(),
		},
		[][]graph.NodeID{{1, 3, 5, 6}, {2, 4, 9}, nil},
		func() { closed++ })
	got, err := gtea.Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]graph.NodeID{{1, 3}, {2, 4}, {4, 9}, {5, 6}}
	if len(got.Tuples) != len(want) {
		t.Fatalf("merged %d rows, want %d: %v", len(got.Tuples), len(want), got.Tuples)
	}
	for i, w := range want {
		if core.CompareTuples(got.Tuples[i], w) != 0 {
			t.Fatalf("row %d = %v, want %v", i, got.Tuples[i], w)
		}
	}
	if closed != 1 {
		t.Fatalf("onClose ran %d times after a full drain, want 1", closed)
	}
	m.Close()
	m.Close()
	if closed != 1 {
		t.Fatalf("onClose ran %d times after repeated Close, want 1", closed)
	}
	if _, ok := m.Next(); ok {
		t.Fatal("Next returned a row after Close")
	}
}

// TestMergeCursorBufferedAfterDrainAndClose is a regression test:
// Buffered asked the children, which a drain or a Close drops, so
// calling it afterwards panicked. It runs a lazy merge (the pair query
// over a chain forest) and a buffered one (gen.InterleavedHub over two
// shards, where every shard cursor is buffered), and checks
// the buffered merge keeps its rows valid after the following Next, as
// the Cursor contract says.
func TestMergeCursorBufferedAfterDrainAndClose(t *testing.T) {
	lazy, pq := shardPairSetup(t, 40, 2)
	g, hq := gen.InterleavedHub(2, 3)
	plan, err := Partition(g, 2, ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := NewEngine(g, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hubWant := core.EvalNaive(g, reach.NewTC(g), hq)
	for _, c := range []struct {
		name string
		se   *ShardedEngine
		q    *core.Query
		want bool
	}{{"lazy", lazy, pq, false}, {"buffered", buffered, hq, true}} {
		for _, drain := range []bool{true, false} {
			cur, _, err := c.se.EvalCursor(context.Background(), c.q)
			if err != nil {
				t.Fatal(err)
			}
			if cur.Buffered() != c.want {
				t.Fatalf("%s: Buffered() = %t before the drain", c.name, !c.want)
			}
			var rows [][]graph.NodeID
			for row, ok := cur.Next(); ok && drain; row, ok = cur.Next() {
				rows = append(rows, row) // not copied: checked only when buffered
			}
			cur.Close()
			if cur.Buffered() != c.want {
				t.Fatalf("%s (drain %t): Buffered() = %t after the cursor ended", c.name, drain, !c.want)
			}
			if drain && c.want {
				if got := (&core.Answer{Out: cur.Out(), Tuples: rows}); !hubWant.Equal(got) {
					t.Fatalf("buffered merge rows did not stay valid:\nwant %v\ngot  %v", hubWant, got)
				}
			}
		}
	}
}

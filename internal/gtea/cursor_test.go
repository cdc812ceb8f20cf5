package gtea

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
	"gtpq/internal/reach"
)

// TestCursorMatchesEval is the core streaming property on one engine:
// draining EvalCursor yields exactly the core.EvalNaive oracle's rows,
// in canonical order, across random graphs and random queries. Random
// queries almost never interleave their output positions, so
// gen.InterleavedHub is added to make sure both the lazy odometer
// and its sorted, buffered rows are checked.
func TestCursorMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	labels := []string{"a", "b", "c"}
	g := randGraph(r, 80, 240, labels, false)
	type testCase struct {
		e  *Engine
		tc *reach.TC
		q  *core.Query
	}
	e, tc := New(g), reach.NewTC(g)
	var cases []testCase
	for i := 0; i < 25; i++ {
		cases = append(cases, testCase{e, tc, randQuery(r, 2+r.Intn(5), labels, true, true)})
	}
	hub, hq := gen.InterleavedHub(1, 4)
	cases = append(cases, testCase{New(hub), reach.NewTC(hub), hq})
	lazy, buffered := 0, 0
	for i, c := range cases {
		want := core.EvalNaive(c.e.G, c.tc, c.q)
		cur, _, err := c.e.EvalCursor(context.Background(), c.q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if cur.Buffered() {
			buffered++
		} else {
			lazy++
		}
		got, err := Collect(cur)
		if err != nil {
			t.Fatalf("query %d: drain: %v", i, err)
		}
		if cur.Rows() != int64(len(got.Tuples)) {
			t.Fatalf("query %d: Rows()=%d but drained %d", i, cur.Rows(), len(got.Tuples))
		}
		cur.Close()
		if !want.Equal(got) {
			t.Fatalf("query %d: cursor rows differ from the oracle\nquery:\n%s\nwant %v\ngot  %v", i, c.q, want, got)
		}
	}
	if lazy == 0 || buffered == 0 {
		t.Fatalf("%d lazy, %d buffered cursors: both paths must run", lazy, buffered)
	}
}

// TestCursorLazyOnContiguousOutputs pins the structural guarantee the
// NDJSON path's memory bound rests on: a query whose output positions
// sit in one component (the common qlang case — subtrees are contiguous
// in preorder ids) streams through the odometer product, not through a
// materialized answer.
func TestCursorLazyOnContiguousOutputs(t *testing.T) {
	g := chainGraph(60)
	e := New(g)
	cur, _, err := e.EvalCursor(context.Background(), pairQuery())
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Buffered() {
		t.Fatal("contiguous-output query fell back to a buffered cursor")
	}
	want := e.Eval(pairQuery())
	got, err := Collect(cur)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatalf("lazy cursor rows differ: want %d rows, got %d", len(want.Tuples), len(got.Tuples))
	}
}

// TestCursorFirstRowAndHeapBounds pins what streaming exists for, on a
// result that is the Cartesian product of small per-component
// partials: a hub r with fan a-children and fan b-children, queried for
// every (a, b) pair below r. The hub prunes to one candidate, so the
// two output nodes become independent components of fan tuples each
// and the answer has fan² rows. Eval builds and sorts the whole product
// before a row exists; the cursor's first row must come at least 5x
// sooner, and mid-drain it must hold the 2·fan partial tuples, not the
// fan² rows — under a quarter of the materialized answer's live heap.
// Both sides hash their rows in order, so this is a byte-identity check
// as well.
func TestCursorFirstRowAndHeapBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("memory/latency measurement; skipped in -short")
	}
	const fan = 300
	g := graph.New(1+2*fan, 2*fan)
	hub := g.AddNode("r", nil)
	for _, label := range []string{"a", "b"} {
		for i := 0; i < fan; i++ {
			g.AddEdge(hub, g.AddNode(label, nil))
		}
	}
	q := core.NewQuery()
	r := q.AddRoot("r", core.Label("r"))
	q.SetOutput(q.AddNode("x", core.Backbone, r, core.AD, core.Label("a")))
	q.SetOutput(q.AddNode("y", core.Backbone, r, core.AD, core.Label("b")))
	e := New(g)
	e.Eval(q) // warm up index paths outside the measurement

	hash := func(h uint64, row []graph.NodeID) uint64 {
		for _, v := range row {
			h = (h ^ uint64(uint32(v))) * 1099511628211
		}
		return h
	}
	const fnvOffset = 14695981039346656037 // FNV-1a

	// Materialized: the first row is usable only once the whole answer
	// exists; the heap is sampled with the answer live.
	base := liveHeap()
	t0 := time.Now()
	ans := e.Eval(q)
	matFirst := time.Since(t0)
	matHeap := int64(liveHeap() - base)
	matHash := uint64(fnvOffset)
	for _, row := range ans.Tuples {
		matHash = hash(matHash, row)
	}
	rows := len(ans.Tuples)
	runtime.KeepAlive(ans)
	ans = nil
	if rows != fan*fan {
		t.Fatalf("fan product has %d rows, want %d", rows, fan*fan)
	}

	// Streamed: the first Next is the first row; the heap is sampled
	// mid-drain with only the cursor live.
	base = liveHeap()
	t0 = time.Now()
	cur, _, err := e.EvalCursor(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Buffered() {
		t.Fatal("fan product fell back to a buffered cursor")
	}
	var curFirst time.Duration
	curHeap, curHash, n := int64(0), uint64(fnvOffset), 0
	for {
		row, ok := cur.Next()
		if !ok {
			break
		}
		if n++; n == 1 {
			curFirst = time.Since(t0)
		}
		curHash = hash(curHash, row)
		if n == rows/2 {
			curHeap = int64(liveHeap() - base)
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	t.Logf("materialized: first row %v, live heap %d B; cursor: first row %v, mid-drain heap %d B",
		matFirst, matHeap, curFirst, curHeap)

	if n != rows || curHash != matHash {
		t.Fatalf("cursor rows differ from Eval: %d rows vs %d, hash %x vs %x", n, rows, curHash, matHash)
	}
	if curFirst*5 > matFirst {
		t.Errorf("cursor's first row after %v is not 5x sooner than the materialized answer's %v", curFirst, matFirst)
	}
	if curHeap*4 > matHeap {
		t.Errorf("mid-drain heap %d B is not under 1/4 of the materialized answer's %d B", curHeap, matHeap)
	}
}

// TestCursorCancelMidDrain checks cancellation interrupts a long drain:
// after cancel, the cursor stops within one poll interval and reports
// the context error.
func TestCursorCancelMidDrain(t *testing.T) {
	g := chainGraph(400) // ~80k result pairs
	e := New(g)
	ctx, cancel := context.WithCancel(context.Background())
	cur, _, err := e.EvalCursor(ctx, pairQuery())
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 0; i < 10; i++ {
		if _, ok := cur.Next(); !ok {
			t.Fatal("cursor exhausted after 10 rows; graph too small for the test")
		}
	}
	cancel()
	// The poll runs every opsPerCtxCheck rows; the cursor must stop well
	// before the ~80k-row drain completes.
	n := 0
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
		if n++; n > 2*opsPerCtxCheck {
			t.Fatalf("cursor emitted %d rows after cancel", n)
		}
	}
	if !errors.Is(cur.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", cur.Err())
	}
}

// TestCursorAbandonReleasesContext checks the pool-safety contract: the
// pooled evalContext is released before EvalCursor returns, so a
// half-consumed, never-closed cursor cannot poison later evaluations on
// the same engine.
func TestCursorAbandonReleasesContext(t *testing.T) {
	g := chainGraph(120)
	e := New(g)
	want := e.Eval(pairQuery())
	cur, _, err := e.EvalCursor(context.Background(), pairQuery())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		cur.Next()
	}
	// Abandon without Close, then evaluate again through the pool.
	for i := 0; i < 3; i++ {
		if got := e.Eval(pairQuery()); !want.Equal(got) {
			t.Fatalf("eval %d after abandoned cursor differs", i)
		}
	}
	cur.Close()
	if _, ok := cur.Next(); ok {
		t.Fatal("Next returned a row after Close")
	}
}

// TestCursorEmptyResult checks the empty-answer path: no candidates at
// all yields an immediately-exhausted cursor with no error.
func TestCursorEmptyResult(t *testing.T) {
	g := chainGraph(10)
	e := New(g)
	q := core.NewQuery()
	x := q.AddRoot("x", core.Label("nope"))
	q.SetOutput(x)
	cur, _, err := e.EvalCursor(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, ok := cur.Next(); ok {
		t.Fatal("empty result produced a row")
	}
	if cur.Err() != nil {
		t.Fatalf("empty drain errored: %v", cur.Err())
	}
	if cur.Rows() != 0 {
		t.Fatalf("Rows() = %d on empty result", cur.Rows())
	}
}

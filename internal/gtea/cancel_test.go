package gtea

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"gtpq/internal/core"
	"gtpq/internal/graph"
)

// chainGraph returns a path of n nodes all labeled "a": every node
// reaches every later node, so the two-output pair query below has
// Θ(n²) result tuples — a long enumeration to cancel into.
func chainGraph(n int) *graph.Graph {
	g := graph.New(n, n-1)
	for i := 0; i < n; i++ {
		g.AddNode("a", nil)
	}
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
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

// TestEvalCtxAlreadyCancelled checks the fast abort path: a cancelled
// context returns before any real work.
func TestEvalCtxAlreadyCancelled(t *testing.T) {
	g := chainGraph(50)
	e := New(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ans, _, err := e.EvalStatsCtx(ctx, pairQuery())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if ans != nil {
		t.Fatal("cancelled evaluation returned a (partial) answer")
	}
}

// TestEvalCtxDeadlineCancelsEnumeration checks that a deadline
// actually interrupts a long evaluation: the pair query on a 1500-node
// chain has ~1.1M result tuples (roughly a second of enumeration), and
// a few-millisecond deadline must abort it in well under the full
// runtime.
func TestEvalCtxDeadlineCancelsEnumeration(t *testing.T) {
	g := chainGraph(1500)
	e := New(g)
	q := pairQuery()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	ans, st, err := e.EvalStatsCtx(ctx, q)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got err %v, want context.DeadlineExceeded", err)
	}
	if ans != nil {
		t.Fatal("timed-out evaluation returned a (partial) answer")
	}
	// Generous bound: the point is that we did not run the whole
	// enumeration (which takes orders of magnitude longer).
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, deadline was 5ms", elapsed)
	}
	if st.TotalTime == 0 {
		t.Fatal("stats of the aborted call were not reported")
	}
}

// TestEvalCtxBackgroundMatchesEval checks the ctx path is answer- and
// stats-identical to the plain path when never cancelled.
func TestEvalCtxBackgroundMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	labels := []string{"a", "b", "c"}
	g := randGraph(r, 80, 240, labels, false)
	e := New(g)
	for i := 0; i < 10; i++ {
		q := randQuery(r, 2+r.Intn(5), labels, true, true)
		want, wantSt := e.EvalStats(q)
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		got, gotSt, err := e.EvalStatsCtx(ctx, q)
		cancel()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !want.Equal(got) {
			t.Fatalf("query %d: ctx answer differs", i)
		}
		if wantSt.Input != gotSt.Input || wantSt.Index != gotSt.Index ||
			wantSt.Intermediate != gotSt.Intermediate || wantSt.Results != gotSt.Results {
			t.Fatalf("query %d: ctx stats differ: %+v vs %+v", i, wantSt, gotSt)
		}
	}
}

package gtea

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// TestConcurrentEvalSharedEngine runs many goroutines against one
// shared engine and checks every concurrent answer (and its per-call
// stats) matches the sequential run. Run with -race, this is the
// reentrancy proof for the immutable-engine / per-call-context split.
func TestConcurrentEvalSharedEngine(t *testing.T) {
	r := rand.New(rand.NewSource(601))
	labels := []string{"a", "b", "c", "d"}
	g := randGraph(r, 120, 360, labels, false)

	const nQueries = 12
	qs := make([]*core.Query, nQueries)
	for i := range qs {
		qs[i] = randQuery(r, 2+r.Intn(6), labels, true, true)
	}

	e := New(g)
	wantAns := make([]*core.Answer, nQueries)
	wantStat := make([]Stats, nQueries)
	for i, q := range qs {
		wantAns[i], wantStat[i] = e.EvalStats(q)
	}

	const workers = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(700 + w)))
			for round := 0; round < rounds; round++ {
				i := rr.Intn(nQueries)
				got, st := e.EvalStats(qs[i])
				if !wantAns[i].Equal(got) {
					errs <- "concurrent answer differs from sequential"
					return
				}
				// The engine is deterministic, so per-call counters must
				// be exactly the sequential ones — shared-state leakage
				// (the old Engine.Stats() design) shows up here.
				if st.Input != wantStat[i].Input || st.Index != wantStat[i].Index ||
					st.Intermediate != wantStat[i].Intermediate || st.Results != wantStat[i].Results {
					errs <- "concurrent per-call stats differ from sequential"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestConcurrentEvalAcrossBackends shares one engine per backend across
// goroutines and cross-checks answers between backends on the fly.
func TestConcurrentEvalAcrossBackends(t *testing.T) {
	r := rand.New(rand.NewSource(602))
	labels := []string{"a", "b", "c"}
	g := randGraph(r, 60, 180, labels, false)
	q := randQuery(r, 4, labels, true, true)

	engines := make([]*Engine, 0, len(reach.Kinds()))
	for _, kind := range reach.Kinds() {
		e, err := NewWithOptions(g, Options{Index: kind})
		if err != nil {
			t.Fatalf("building %q: %v", kind, err)
		}
		engines = append(engines, e)
	}
	want := engines[0].Eval(q)

	var wg sync.WaitGroup
	mismatch := make(chan string, len(engines)*4)
	for _, e := range engines {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(e *Engine) {
				defer wg.Done()
				if got := e.Eval(q); !want.Equal(got) {
					mismatch <- e.H.Kind()
				}
			}(e)
		}
	}
	wg.Wait()
	close(mismatch)
	for kind := range mismatch {
		t.Fatalf("backend %q disagrees under concurrency", kind)
	}
}

// TestBackendsMatchOracle checks every backend drives GTEA
// to the oracle answer on random graphs, cyclic and acyclic, with PC
// edges and logic.
func TestBackendsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(603))
	labels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 40; trial++ {
		g := randGraph(r, 5+r.Intn(25), 5+r.Intn(70), labels, trial%2 == 0)
		q := randQuery(r, 2+r.Intn(6), labels, true, true)
		if err := q.Validate(); err != nil {
			t.Fatalf("trial %d: invalid random query: %v", trial, err)
		}
		want := core.EvalNaive(g, reach.NewTC(g), q)
		for _, kind := range reach.Kinds() {
			e, err := NewWithOptions(g, Options{Index: kind})
			if err != nil {
				t.Fatalf("trial %d: building %q: %v", trial, kind, err)
			}
			got := e.Eval(q)
			if !want.Equal(got) {
				t.Fatalf("trial %d backend %q: mismatch\nquery:\n%s\nwant: %sgot:  %s",
					trial, kind, q, want, got)
			}
		}
	}
}

// TestSharedIndexStatsNotDoubleCounted pins the fix for the old
// delta-based Index counter: two engines sharing one index must report
// the same per-eval lookup count as a lone engine, in any interleaving.
func TestSharedIndexStatsNotDoubleCounted(t *testing.T) {
	r := rand.New(rand.NewSource(604))
	labels := []string{"a", "b", "c"}
	g := randGraph(r, 40, 120, labels, true)
	q := randQuery(r, 4, labels, false, false)

	lone := New(g)
	_, want := lone.EvalStats(q)

	h := reach.NewThreeHop(g)
	e1 := NewWithIndex(g, h, Options{})
	e2 := NewWithIndex(g, h, Options{})
	// Interleave: e1, e2, e1 — under the old shared-counter delta the
	// later calls would absorb the earlier calls' lookups.
	if _, st := e1.EvalStats(q); st.Index != want.Index {
		t.Fatalf("e1 first eval Index = %d, want %d", st.Index, want.Index)
	}
	if _, st := e2.EvalStats(q); st.Index != want.Index {
		t.Fatalf("e2 eval Index = %d, want %d", st.Index, want.Index)
	}
	if _, st := e1.EvalStats(q); st.Index != want.Index {
		t.Fatalf("e1 second eval Index = %d, want %d", st.Index, want.Index)
	}
}

// TestNewWithOptionsUnknownIndex checks that reach.Build's unknown-kind
// error surfaces.
func TestNewWithOptionsUnknownIndex(t *testing.T) {
	g := graph.New(1, 0)
	g.AddNode("a", nil)
	g.Freeze()
	_, err := NewWithOptions(g, Options{Index: "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown index kind") {
		t.Fatalf("err = %v, want unknown-kind error", err)
	}
}

// TestGroupedEvalConcurrent exercises EvalGrouped (which layers on
// Eval) from multiple goroutines.
func TestGroupedEvalConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(605))
	labels := []string{"a", "b", "c"}
	g := randGraph(r, 50, 150, labels, true)
	var q *core.Query
	var groupNode int
	for {
		q = randQuery(r, 5, labels, false, false)
		if outs := q.Outputs(); len(outs) > 1 {
			groupNode = outs[len(outs)-1]
			break
		}
	}
	e := New(g)
	want := e.EvalGrouped(q, groupNode)

	var wg sync.WaitGroup
	bad := make(chan struct{}, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := e.EvalGrouped(q, groupNode)
			if len(got.Groups) != len(want.Groups) {
				bad <- struct{}{}
			}
		}()
	}
	wg.Wait()
	close(bad)
	if _, open := <-bad; open {
		t.Fatal("concurrent EvalGrouped produced a different group count")
	}
}

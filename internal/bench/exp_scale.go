package bench

import (
	"math/rand"
	"sync"
	"time"

	"gtpq/internal/core"
	"gtpq/internal/gtea"
	"gtpq/internal/queries"
	"gtpq/internal/reach"
)

// IndexBackends compares every registered reachability backend on the
// same graph and workload: build time, index size, and the average Q1
// evaluation time and index-lookup count. Backends that refuse the
// graph (e.g. "tc" beyond its SCC limit) are reported and skipped.
func (r *Runner) IndexBackends() {
	scale := r.Cfg.Scales[0]
	g, _ := r.XMark(scale)
	r.printf("== Index backends: build and Q1 evaluation, XMark scale %.1f ==\n", scale)
	r.printf("%-10s %12s %12s %12s %14s\n",
		"kind", "build", "size", "eval", "#index")
	for _, kind := range reach.Kinds() {
		var h reach.ContourIndex
		var err error
		buildT := timeIt(func() { h, err = reach.Build(kind, g) })
		if err != nil {
			r.printf("%-10s skipped: %v\n", kind, err)
			continue
		}
		e := gtea.NewWithIndex(g, h, gtea.Options{})
		var evalT time.Duration
		var lookups int64
		for i := 0; i < r.Cfg.QueriesPerPoint; i++ {
			q := queries.XMarkQ1(rand.New(rand.NewSource(r.Cfg.Seed + int64(i))))
			var st gtea.Stats
			evalT += timeIt(func() { _, st = e.EvalStats(q) })
			lookups += st.Index
		}
		n := time.Duration(r.Cfg.QueriesPerPoint)
		r.printf("%-10s %12s %12d %12s %14d\n", kind,
			fmtDur(buildT), h.IndexSize(),
			fmtDur(evalT/n), lookups/int64(r.Cfg.QueriesPerPoint))
	}
}

// concurrencyWorkers is the goroutine ladder of the throughput sweep.
var concurrencyWorkers = []int{1, 2, 4, 8}

// Concurrency measures evaluation throughput of one shared engine under
// increasing goroutine counts — the reentrancy payoff of the immutable
// engine / per-call context split. Every worker evaluates the same Q1
// instances; answers are identical by construction (cross-checked by
// the consistency tests).
func (r *Runner) Concurrency() {
	scale := r.Cfg.Scales[0]
	g, _ := r.XMark(scale)
	e := r.GTEA(g)
	qs := make([]*core.Query, r.Cfg.QueriesPerPoint)
	for i := range qs {
		qs[i] = queries.XMarkQ1(rand.New(rand.NewSource(r.Cfg.Seed + int64(i))))
		e.Eval(qs[i]) // warm the page cache / allocator before timing
	}
	const perWorker = 4
	r.printf("== Concurrency: shared-engine Eval throughput, XMark scale %.1f ==\n", scale)
	r.printf("%-10s %12s %12s\n", "goroutines", "total", "evals/s")
	for _, workers := range concurrencyWorkers {
		elapsed := timeIt(func() { runWorkers(e, qs, workers, perWorker) })
		total := workers * perWorker * len(qs)
		persec := float64(total) / elapsed.Seconds()
		r.printf("%-10d %12s %12.1f\n", workers, fmtDur(elapsed), persec)
	}
}

// runWorkers evaluates every query rounds times on each of workers
// goroutines sharing one engine.
func runWorkers(e *gtea.Engine, qs []*core.Query, workers, rounds int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, q := range qs {
					e.Eval(q)
				}
			}
		}()
	}
	wg.Wait()
}

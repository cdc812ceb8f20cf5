package gtpq

import (
	"flag"
	"io"
	"math/rand"
	"os"
	"testing"

	"gtpq/internal/bench"
	"gtpq/internal/gtea"
	"gtpq/internal/hgjoin"
	"gtpq/internal/queries"
	"gtpq/internal/twig2stack"
	"gtpq/internal/twigstack"
	"gtpq/internal/twigstackd"
	"gtpq/internal/xmark"
)

// Sizes of a BenchmarkPaper run; the defaults are a reduced size.
var (
	flagPersons = flag.Int("persons", 150, "BenchmarkPaper: XMark persons per scale unit")
	flagQueries = flag.Int("queries", 3, "BenchmarkPaper: query instances averaged per data point")
	flagPerSize = flag.Int("persize", 2, "BenchmarkPaper: arXiv queries kept per size and result group")
)

// BenchmarkPaper prints the paper's artifacts (Tables 1–5, Figs 8–10,
// 12, plus the ablations and the index-backend and concurrency sweeps;
// README "Benchmarks" has the index), one sub-benchmark per entry of
// bench.Experiments:
//
//	go test -run '^$' -bench 'Paper/f8a' -benchtime=1x -v .
//	go test -run '^$' -bench Paper -benchtime=1x -v . -persons 1500 -queries 10 -persize 15   # paper-sized
//
// The tables go to stdout under -v; without it only the timings show.
func BenchmarkPaper(b *testing.B) {
	var w io.Writer = io.Discard
	if testing.Verbose() {
		w = os.Stdout
	}
	cfg := bench.Config{PersonsPerUnit: *flagPersons, QueriesPerPoint: *flagQueries, ArxivPerSize: *flagPerSize}
	for _, e := range bench.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Run(bench.NewRunner(cfg, w))
			}
		})
	}
}

// ---- per-engine microbenchmarks on a fixed XMark graph (Q1) ----

func BenchmarkEngineGTEAQ1(b *testing.B) {
	g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 300, Seed: 7})
	e := gtea.New(g)
	q := queries.XMarkQ1(rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval(q)
	}
}

func BenchmarkEngineTwigStackQ1(b *testing.B) {
	g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 300, Seed: 7})
	e := twigstack.New(g)
	q := queries.XMarkQ1(rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval(q)
	}
}

func BenchmarkEngineTwig2StackQ1(b *testing.B) {
	g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 300, Seed: 7})
	e := twig2stack.New(g)
	q := queries.XMarkQ1(rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval(q)
	}
}

func BenchmarkEngineTwigStackDQ1(b *testing.B) {
	g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 300, Seed: 7})
	e := twigstackd.New(g)
	q := queries.XMarkQ1(rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval(q)
	}
}

func BenchmarkEngineHGJoinPlusQ1(b *testing.B) {
	g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 300, Seed: 7})
	e := hgjoin.New(g)
	q := queries.XMarkQ1(rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvalPlus(q)
	}
}

func BenchmarkIndexBuild3Hop(b *testing.B) {
	g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 300, Seed: 7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gtea.New(g)
	}
}

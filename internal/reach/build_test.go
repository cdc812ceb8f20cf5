package reach

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"gtpq/internal/arxiv"
	"gtpq/internal/graph"
	"gtpq/internal/xmark"
)

func TestKindsListsBuiltins(t *testing.T) {
	kinds := Kinds()
	has := func(k string) bool {
		for _, x := range kinds {
			if x == k {
				return true
			}
		}
		return false
	}
	if !has("threehop") || !has("tc") {
		t.Fatalf("Kinds() = %v, want threehop and tc", kinds)
	}
}

func TestBuildUnknownKind(t *testing.T) {
	g := graph.New(1, 0)
	g.AddNode("a", nil)
	g.Freeze()
	if _, err := Build("nope", g); err == nil || !strings.Contains(err.Error(), "unknown index kind") {
		t.Fatalf("err = %v, want unknown-kind error", err)
	}
}

func TestBuildDefaultKindIsThreeHop(t *testing.T) {
	g := graph.New(1, 0)
	g.AddNode("a", nil)
	g.Freeze()
	h, err := Build("", g)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind() != "threehop" {
		t.Fatalf("default kind = %q, want threehop", h.Kind())
	}
}

// TestParallelBuildMatchesSerial checks that a build sharded across
// goroutines (GOMAXPROCS 2, 3 and 4, on graphs large enough for the
// level sweep and the transpose to really shard, odd worker counts
// included) encodes to the same image as a build run inline on one
// goroutine (GOMAXPROCS 1), for both backends. Two of the graphs are
// dense: most of their SCCs reach a large share of the chains (the
// small arXiv graph, and a random DAG of out-degree 10).
func TestParallelBuildMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	r := rand.New(rand.NewSource(501))
	arxivTiny, _ := goldenGraphs()
	for name, g := range map[string]*graph.Graph{
		"dag":        randDAG(r, 3000, 9000),
		"cyclic":     randDigraph(r, 3000, 4000),
		"dense":      randDAG(r, 1500, 15000),
		"arxiv tiny": arxivTiny,
	} {
		for _, kind := range []string{"threehop", "tc"} {
			build := func(procs int) []byte {
				runtime.GOMAXPROCS(procs)
				h, err := Build(kind, g)
				if err != nil {
					t.Fatalf("%s %s: build: %v", name, kind, err)
				}
				return image(t, h)
			}
			want := build(1)
			for _, procs := range []int{2, 3, 4} {
				if !bytes.Equal(build(procs), want) {
					t.Errorf("%s %s: GOMAXPROCS %d build encodes differently from the GOMAXPROCS 1 build", name, kind, procs)
				}
			}
		}
	}
}

// TestThreeHopBytesAreDeterministic checks that the image of an index is a
// function of the graph alone: a second build and a decode of the first
// encode to the same bytes as the first build.
func TestThreeHopBytesAreDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(503))
	for name, g := range map[string]*graph.Graph{
		"dag":    randDAG(r, 3000, 9000),
		"cyclic": randDigraph(r, 3000, 4000),
	} {
		want := image(t, NewThreeHop(g))
		decoded, err := decodeImage("threehop", g, want)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		for how, h := range map[string]ContourIndex{
			"second build": NewThreeHop(g),
			"round trip":   decoded,
		} {
			if !bytes.Equal(image(t, h), want) {
				t.Errorf("%s: %s encodes differently from the first build", name, how)
			}
		}
	}
}

// TestGenericContoursMatchBruteForce checks the Probe of every
// backend's PredContour and SuccContour against brute-force traversal
// truth.
func TestGenericContoursMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(502))
	for trial := 0; trial < 40; trial++ {
		var g *graph.Graph
		if trial%2 == 0 {
			g = randDAG(r, 2+r.Intn(35), 2+r.Intn(100))
		} else {
			g = randDigraph(r, 2+r.Intn(35), 2+r.Intn(100))
		}
		k := 1 + r.Intn(6)
		S := make([]graph.NodeID, k)
		for i := range S {
			S[i] = graph.NodeID(r.Intn(g.N()))
		}
		for _, kind := range Kinds() {
			h, err := Build(kind, g)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, kind, err)
			}
			var st Stats
			cp := h.PredContour(S, &st)
			cs := h.SuccContour(S, &st)
			for v := 0; v < g.N(); v++ {
				nv := graph.NodeID(v)
				if got, want := cp.Probe(nv, &st), contourWant(g, nv, S, "vToS"); got != want {
					t.Fatalf("trial %d %s: PredContour.Probe(%d, S=%v)=%v want %v",
						trial, kind, v, S, got, want)
				}
				if got, want := cs.Probe(nv, &st), contourWant(g, nv, S, "sToV"); got != want {
					t.Fatalf("trial %d %s: SuccContour.Probe(%d, S=%v)=%v want %v",
						trial, kind, v, S, got, want)
				}
			}
		}
	}
}

// TestConcurrentReadsOneIndex hammers a single built index from many
// goroutines through the stats-sink methods; meaningful under -race.
func TestConcurrentReadsOneIndex(t *testing.T) {
	r := rand.New(rand.NewSource(503))
	g := randDigraph(r, 80, 240)
	for _, kind := range Kinds() {
		h, err := Build(kind, g)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		done := make(chan bool, 8)
		for w := 0; w < 8; w++ {
			go func(seed int64) {
				rr := rand.New(rand.NewSource(seed))
				var st Stats
				ok := true
				for i := 0; i < 200; i++ {
					u := graph.NodeID(rr.Intn(g.N()))
					v := graph.NodeID(rr.Intn(g.N()))
					got := h.ReachesSt(u, v, &st)
					want := bruteReaches(g, u, v)
					if got != want {
						ok = false
					}
					S := []graph.NodeID{u, v}
					cp := h.PredContour(S, &st)
					cs := h.SuccContour(S, &st)
					w := graph.NodeID(rr.Intn(g.N()))
					if cp.Probe(w, &st) != contourWant(g, w, S, "vToS") {
						ok = false
					}
					if cs.Probe(w, &st) != contourWant(g, w, S, "sToV") {
						ok = false
					}
				}
				done <- ok
			}(int64(w))
		}
		for w := 0; w < 8; w++ {
			if !<-done {
				t.Fatalf("%s: concurrent reads produced wrong answers", kind)
			}
		}
	}
}

// TestTCRefusesOversizedGraphs checks that Build returns an
// error (not a panic) past the closure's SCC limit.
func TestTCRefusesOversizedGraphs(t *testing.T) {
	n := tcLimit + 1
	g := graph.New(n, 0)
	for i := 0; i < n; i++ {
		g.AddNode("n", nil)
	}
	g.Freeze()
	if _, err := Build("tc", g); err == nil {
		t.Fatal("expected an error building TC past its SCC limit")
	}
}

// BenchmarkBuildThreeHop measures index construction (condensation,
// chain cover, the Lout sweep and its transpose into Lin) on the two
// dataset families: tree-like XMark sites, at 2,000 and at 8,000
// persons per unit (the 201k-node site the benchmark's XMark workloads
// build), and the dense arXiv citation DAG.
func BenchmarkBuildThreeHop(b *testing.B) {
	xm, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 2000, Seed: 7})
	xm201k, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 8000, Seed: 7})
	ax, _ := arxiv.Generate(arxiv.DefaultConfig())
	for _, fx := range []struct {
		name string
		g    *graph.Graph
	}{{"xmark", xm}, {"xmark201k", xm201k}, {"arxiv", ax}} {
		b.Run(fx.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewThreeHop(fx.g)
			}
		})
	}
}

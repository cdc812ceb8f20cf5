// Command gtpq evaluates a GTPQ (written in the qlang DSL) over a
// generated dataset and prints the results and cost counters.
//
// Usage:
//
//	gtpq -data xmark -scale 1 -query q.gtpq [-limit 20] [-minimize]
//	gtpq -data arxiv -query q.gtpq
//	gtpq -data xmark -index tc -query q.gtpq             # alternate reachability backend
//	echo "node x label=open_auction output" | gtpq -data xmark -query -
//	gtpq -data xmark -save-snapshot x.snap -query q.gtpq # persist graph+index
//	gtpq -data file -graph x.snap -query q.gtpq          # reload without rebuilding
//
// The DSL:
//
//	node  <name> label=<l> [parent=<name>] [edge=pc|ad] [output] [ref]
//	pnode <name> ...                  # predicate (filter) node
//	pred  <name>: <formula>           # e.g.  bidder | !seller
//	where <name>: attr>=value ...     # extra attribute comparisons
//
// A query that marks no node as output returns its root — ParseQuery,
// the Builder, and Engine.Eval all apply the same default.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"gtpq/internal/arxiv"
	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/graphio"
	"gtpq/internal/gtea"
	"gtpq/internal/qlang"
	"gtpq/internal/reach"
	"gtpq/internal/snapshot"
	"gtpq/internal/xmark"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gtpq: ")
	var (
		data     = flag.String("data", "xmark", "dataset: xmark, arxiv, or file")
		file     = flag.String("graph", "", "graph file (with -data file): JSON, gzipped JSON, or a .snap snapshot")
		scale    = flag.Float64("scale", 1, "XMark scaling factor")
		persons  = flag.Int("persons", 1000, "XMark persons per scale unit")
		queryArg = flag.String("query", "", "query file in the qlang DSL ('-' for stdin)")
		limit    = flag.Int("limit", 20, "max result rows to print (0: all)")
		minimize = flag.Bool("minimize", false, "minimize the query first (Algorithm 1)")
		index    = flag.String("index", "", "reachability index backend: "+strings.Join(reach.Kinds(), ", ")+" (default threehop)")
		saveSnap = flag.String("save-snapshot", "", "write the graph and built index to this file (load it later with -data file)")
		plan     = flag.String("plan", "on", "kernel rule: on prunes every internal node with bitset contours unless the index is the transitive closure; off restores the paper's per-candidate kernel")
	)
	flag.Parse()
	if *queryArg == "" {
		flag.Usage()
		os.Exit(2)
	}
	noPlan, err := parsePlanFlag(*plan)
	if err != nil {
		log.Fatal(err)
	}

	src, err := readQuery(*queryArg)
	if err != nil {
		log.Fatal(err)
	}
	q, err := qlang.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	if !core.Satisfiable(q) {
		fmt.Println("query is unsatisfiable: the answer is empty on every graph")
		return
	}
	if *minimize {
		before := q.Size()
		q = core.Minimize(q)
		fmt.Printf("minimized query: %d -> %d nodes\n", before, q.Size())
	}

	var g *graph.Graph
	var eng *gtea.Engine
	start := time.Now()
	switch *data {
	case "xmark":
		var st xmark.Stats
		g, st = xmark.Generate(xmark.Config{Scale: *scale, PersonsPerUnit: *persons, Seed: 7})
		fmt.Printf("xmark scale %.1f: %d nodes, %d edges (generated in %s)\n",
			*scale, st.Nodes, st.Edges, time.Since(start).Round(time.Millisecond))
	case "arxiv":
		var st arxiv.Stats
		g, st = arxiv.Generate(arxiv.DefaultConfig())
		fmt.Printf("arxiv: %d nodes, %d edges, %d labels (generated in %s)\n",
			st.Nodes, st.Edges, st.Labels, time.Since(start).Round(time.Millisecond))
	case "file":
		if *file == "" {
			log.Fatal("-data file requires -graph <path>")
		}
		var h reach.ContourIndex
		var err error
		g, h, err = snapshot.LoadFile(*file)
		switch {
		case err == nil:
			// Snapshot: graph and index revived together, no build.
			eng = gtea.NewWithIndex(g, h, gtea.Options{NoPlan: noPlan})
			fmt.Printf("%s: %d nodes, %d edges, %s index (snapshot loaded in %s)\n",
				*file, g.N(), g.M(), h.Kind(), time.Since(start).Round(time.Millisecond))
		case errors.Is(err, snapshot.ErrNotSnapshot):
			f, err := os.Open(*file)
			if err != nil {
				log.Fatal(err)
			}
			g, err = graphio.Load(f)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s: %d nodes, %d edges\n", *file, g.N(), g.M())
		default:
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown dataset %q", *data)
	}

	if eng == nil {
		start = time.Now()
		var err error
		eng, err = gtea.NewWithOptions(g, gtea.Options{Index: *index, NoPlan: noPlan})
		if err != nil {
			log.Fatal(err)
		}
		if th, ok := eng.H.(*reach.ThreeHop); ok {
			fmt.Printf("%s index: %d chains, %d list entries (built in %s)\n",
				eng.H.Kind(), th.NumChains(), th.IndexSize(), time.Since(start).Round(time.Millisecond))
		} else {
			fmt.Printf("%s index: %d elements (built in %s)\n",
				eng.H.Kind(), eng.H.IndexSize(), time.Since(start).Round(time.Millisecond))
		}
	}

	if *saveSnap != "" {
		start = time.Now()
		if err := snapshot.SaveFile(*saveSnap, g, eng.H); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("snapshot written to %s in %s\n", *saveSnap, time.Since(start).Round(time.Millisecond))
	}

	start = time.Now()
	ans, st := eng.EvalStats(q)
	elapsed := time.Since(start)
	fmt.Printf("%d result(s) in %s  [input=%d index=%d intermediate=%d]\n",
		ans.Len(), elapsed.Round(time.Microsecond), st.Input, st.Index, st.Intermediate)

	// Header.
	fmt.Print("  ")
	for _, u := range ans.Out {
		fmt.Printf("%-16s", q.Nodes[u].Name)
	}
	fmt.Println()
	for i, row := range ans.Tuples {
		if *limit > 0 && i >= *limit {
			fmt.Printf("  ... %d more\n", ans.Len()-i)
			break
		}
		fmt.Print("  ")
		for _, v := range row {
			fmt.Printf("%-16s", fmt.Sprintf("%d(%s)", v, g.Label(v)))
		}
		fmt.Println()
	}
}

// parsePlanFlag maps the -plan value to gtea.Options.NoPlan.
func parsePlanFlag(v string) (noPlan bool, err error) {
	switch v {
	case "on", "true", "1":
		return false, nil
	case "off", "false", "0":
		return true, nil
	}
	return false, fmt.Errorf("invalid -plan value %q (want on or off)", v)
}

func readQuery(arg string) (string, error) {
	if arg == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(arg)
	return string(b), err
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"gtpq/internal/arxiv"
	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/qlang"
	"gtpq/internal/queries"
	"gtpq/internal/xmark"
)

// scale sizes the generated data. "full" is what the benchmark measures;
// "tiny" exists so that the smoke test can run every workload's whole
// code path in a second.
type scale struct {
	name          string
	sitePersons   int // xmark_eval and serve_hot: persons in the one XMark site
	fleetPersons  int // fleet_rw
	forestSites   int // stream_rows: XMark sites merged into one graph
	forestPersons int
	arxiv         arxiv.Config
	arxivQueries  int
	streamRowsMin int // stream_rows keeps templates returning at least this many rows
	streamRowsMax int
	popFactor     int // divides the label-instantiation draws
	// tailWriteGap spaces the short write stream a read-only workload's
	// traced run ends with: wider than one update takes on this size of
	// graph, so that the open loop measures service, not a backlog.
	tailWriteGap time.Duration
	// reachProbeFor is how long the reachability probe loop runs.
	reachProbeFor time.Duration
}

var scales = map[string]scale{
	"full": {
		name: "full", sitePersons: 8000, fleetPersons: 2000,
		forestSites: 8, forestPersons: 1000,
		arxiv: arxiv.DefaultConfig(), arxivQueries: 200,
		streamRowsMin: 10000, streamRowsMax: 40000, popFactor: 1,
		tailWriteGap: 250 * time.Millisecond, reachProbeFor: 250 * time.Millisecond,
	},
	"tiny": {
		name: "tiny", sitePersons: 80, fleetPersons: 80,
		forestSites: 4, forestPersons: 40,
		arxiv: arxiv.Config{
			Papers: 500, Authors: 250, AuthorsPerPaper: 2.5, CitesPerPaper: 1.8,
			Window: 100, PaperLabels: 60, AuthorLabels: 40, Seed: 11,
		},
		arxivQueries:  20,
		streamRowsMin: 100, streamRowsMax: 200000, popFactor: 5,
		tailWriteGap: 10 * time.Millisecond, reachProbeFor: 20 * time.Millisecond,
	},
}

// workload is one traffic mix over one generated dataset.
type workload struct {
	name string
	why  string
	lay  layout
	// cacheFits sizes the result cache so that it holds the whole
	// population: after the warm-up pass every read is a hit.
	cacheFits bool
	// data generates the dataset. It takes no seed: like the paper's XMark
	// and arXiv graphs, a workload's dataset and query population are fixed
	// by the benchmark, and the run's seed drives the traffic over them
	// (request order, Zipf draws, the write stream). Runs at different
	// seeds are then runs of one experiment and can be compared.
	data func(sc scale) *graph.Graph
	// queries builds the distinct query population. ref evaluates on the
	// generated graph (workloads that keep queries by result size use it).
	queries func(r *rand.Rand, g *graph.Graph, ref *gtea.Engine, sc scale) ([]*query, error)
	// zipf selects queries Zipf(1.1)-distributed instead of cycling
	// through the population.
	zipf    bool
	modes   []delivery
	readers int // closed-loop read clients
	// writeRate is the open-loop write stream's rate in batches/s while
	// reads are measured; 0 means the workload is read-only.
	writeRate int
	// anchorLabel is the standing query's root label ("" picks a seeded
	// one from the graph).
	anchorLabel string
}

var workloads = []workload{
	{
		name: "xmark_eval",
		why:  "paper's XMark queries, 201k nodes, cache off: gtea candidate scans and pruning are nearly all of the latency",
		data: oneSite(func(sc scale) int { return sc.sitePersons }),
		queries: func(r *rand.Rand, _ *graph.Graph, _ *gtea.Engine, sc scale) ([]*query, error) {
			return xmarkQueries(r, 12/sc.popFactor+1, 15/sc.popFactor+1, 15/sc.popFactor+1)
		},
		modes: []delivery{deliverJSON}, readers: 2, anchorLabel: "open_auction",
	},
	{
		name: "arxiv_reach",
		why:  "random TPQs on the dense arXiv DAG, cache off: reach list merging dominates, candidate scans are negligible",
		data: func(sc scale) *graph.Graph {
			g, _ := arxiv.Generate(sc.arxiv)
			return g
		},
		queries: arxivQueries,
		modes:   []delivery{deliverJSON}, readers: 2,
	},
	{
		name:      "serve_hot",
		why:       "same XMark site, Zipf over a population the cache holds: http, server, qlang and qcache are all of the latency, the engine none",
		cacheFits: true,
		data:      oneSite(func(sc scale) int { return sc.sitePersons }),
		queries: func(r *rand.Rand, _ *graph.Graph, _ *gtea.Engine, sc scale) ([]*query, error) {
			return xmarkQueries(r, 30/sc.popFactor+1, 60/sc.popFactor+1, 60/sc.popFactor+1)
		},
		zipf: true, modes: []delivery{deliverJSON}, readers: 2, anchorLabel: "open_auction",
	},
	{
		name:    "stream_rows",
		why:     "10k-40k-row answers from 4 wcc shards, NDJSON and paged: enumeration, cursor merge and encode/flush do the work",
		lay:     layout{shards: 4},
		data:    forest,
		queries: streamQueries,
		// Two streamed reads to one paged drain: with an even split the
		// median would sit on the gap between the two modes' latencies.
		modes: []delivery{deliverNDJSON, deliverNDJSON, deliverPaged}, readers: 2, anchorLabel: "open_auction",
	},
	{
		name: "fleet_rw",
		why:  "reads through router + replica beside 10 writes/s: cache invalidation, delta overlay, compaction and replica lag",
		// A 4 MiB cache is full two seconds into the run. One that never
		// evicts keeps a dead answer per miss of every past generation, and
		// heap_live_mb then grows with the number of reads a run gets to.
		lay:  layout{fleet: true, cacheBytes: 4 << 20, compactAfter: 75},
		data: oneSite(func(sc scale) int { return sc.fleetPersons }),
		queries: func(r *rand.Rand, _ *graph.Graph, _ *gtea.Engine, sc scale) ([]*query, error) {
			return xmarkQueries(r, 30/sc.popFactor+1, 100/sc.popFactor+1, 100/sc.popFactor+1)
		},
		zipf: true, modes: []delivery{deliverJSON}, readers: 1, writeRate: 10, anchorLabel: "open_auction",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// dataSeed is the XMark generator seed of every XMark-based dataset (the
// repository's xmark.DefaultConfig uses the same one).
const dataSeed = 7

func oneSite(persons func(scale) int) func(scale) *graph.Graph {
	return func(sc scale) *graph.Graph {
		g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: persons(sc), Seed: dataSeed})
		return g
	}
}

// forest merges several independently generated XMark sites into one
// graph, so that wcc partitioning has real components to spread.
func forest(sc scale) *graph.Graph {
	out := graph.New(0, 0)
	for s := 0; s < sc.forestSites; s++ {
		g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: sc.forestPersons, Seed: dataSeed + int64(s)})
		off := graph.NodeID(out.N())
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			var attrs graph.Attrs
			for _, k := range g.AttrKeys(v) {
				if attrs == nil {
					attrs = graph.Attrs{}
				}
				attrs[k], _ = g.Attr(v, k)
			}
			out.AddNode(g.Label(v), attrs)
		}
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			for _, w := range g.Out(v) {
				if g.EdgeKindOf(v, w) == graph.CrossEdge {
					out.AddCrossEdge(off+v, off+w)
				} else {
					out.AddEdge(off+v, off+w)
				}
			}
		}
	}
	out.Freeze()
	return out
}

// xmarkQueries is the paper's §5.1 query set: nQ1/nQ2/nQ3 seeded label
// instantiations of Fig 7's Q1-Q3, Table 3's Q4-Q8 and Table 4's
// DIS/NEG/DIS_NEG queries (which have no labels to randomize).
func xmarkQueries(r *rand.Rand, nQ1, nQ2, nQ3 int) ([]*query, error) {
	// lists[0..2] are the Q1/Q2/Q3 instantiations, lists[3] the fixed
	// Fig 11 queries.
	lists := make([][]*query, 4)
	add := func(list int, class string, q *core.Query, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", class, err)
		}
		wq, err := newQuery(class, q)
		if err != nil {
			return err
		}
		lists[list] = append(lists[list], wq)
		return nil
	}
	for i, t := range []struct {
		class string
		n     int
		mk    func(*rand.Rand) *core.Query
	}{{"Q1", nQ1, queries.XMarkQ1}, {"Q2", nQ2, queries.XMarkQ2}, {"Q3", nQ3, queries.XMarkQ3}} {
		for k := 0; k < t.n; k++ {
			if err := add(i, t.class, t.mk(r), nil); err != nil {
				return nil, err
			}
		}
	}
	for _, name := range []string{"Q4", "Q5", "Q6", "Q7", "Q8"} {
		q, err := queries.NewExp1(r, name)
		if err := add(3, name, q, err); err != nil {
			return nil, err
		}
	}
	for _, spec := range queries.Exp2Specs {
		q, err := queries.NewExp2(r, spec)
		if err := add(3, spec.Name, q, err); err != nil {
			return nil, err
		}
	}
	// Interleave the classes, so that any prefix of the population (the
	// probe set) and the head of a Zipf ranking have the same mix of cheap
	// and expensive queries whatever the seed: only labels vary with it.
	var out []*query
	for i := 0; ; i++ {
		took := false
		for _, l := range lists {
			if i < len(l) {
				out = append(out, l[i])
				took = true
			}
		}
		if !took {
			return dedup(out), nil
		}
	}
}

// arxivQueries samples random TPQs of 5/7/9/11 nodes and keeps those
// whose result count falls in the paper's §5.2 Small (2-50) or Large
// (200-1200) band.
func arxivQueries(r *rand.Rand, g *graph.Graph, ref *gtea.Engine, sc scale) ([]*query, error) {
	sizes := []int{5, 7, 9, 11}
	var out []*query
	seen := map[string]bool{}
	for try := 0; len(out) < sc.arxivQueries && try < 40*sc.arxivQueries; try++ {
		size := sizes[try%len(sizes)]
		wq, err := newQuery(fmt.Sprintf("tpq%d", size), queries.RandomTPQ(r, g, size))
		if err != nil {
			return nil, err
		}
		if seen[wq.text] {
			continue
		}
		ans, _, err := ref.EvalStatsCtx(context.Background(), wq.q)
		if err != nil {
			return nil, err
		}
		if queries.Classify(ans.Len()) == queries.Other {
			continue
		}
		seen[wq.text] = true
		out = append(out, wq)
	}
	if len(out) < sc.arxivQueries {
		return nil, fmt.Errorf("arxiv_reach: only %d of %d sampled queries fall in a result band", len(out), sc.arxivQueries)
	}
	return out, nil
}

// streamTemplates are large-result patterns over the XMark forest:
// wildcard children and two-branch products under one root, all PC edges
// so that pruning stays small next to enumeration and delivery.
var streamTemplates = []struct{ class, src string }{
	{"person_children", "node p output\nwhere p: tag=person\nnode x parent=p edge=pc output"},
	{"bidder_pairs", "node oa label=open_auction output\nnode b1 label=bidder parent=oa edge=pc output\nnode i1 label=increase parent=b1 edge=pc output\nnode b2 label=bidder parent=oa edge=pc output\nnode d2 label=date parent=b2 edge=pc output"},
	{"item_children", "node it output\nwhere it: tag=item\nnode x parent=it edge=pc output"},
	{"closed_children", "node ca label=closed_auction output\nnode x parent=ca edge=pc output"},
	{"bidder_parts", "node oa label=open_auction output\nnode b label=bidder parent=oa edge=pc output\nnode d label=date parent=b edge=pc output\nnode i label=increase parent=b edge=pc output"},
	{"oa_children", "node oa label=open_auction output\nnode x parent=oa edge=pc output"},
}

// streamQueries keeps the first four templates whose answer on this
// graph has between streamRowsMin and streamRowsMax rows.
func streamQueries(_ *rand.Rand, _ *graph.Graph, ref *gtea.Engine, sc scale) ([]*query, error) {
	var out []*query
	for _, t := range streamTemplates {
		q, err := qlang.Parse(t.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.class, err)
		}
		wq, err := newQuery(t.class, q)
		if err != nil {
			return nil, err
		}
		ans, _, err := ref.EvalStatsCtx(context.Background(), wq.q)
		if err != nil {
			return nil, err
		}
		if n := ans.Len(); n >= sc.streamRowsMin && n <= sc.streamRowsMax {
			out = append(out, wq)
		}
		if len(out) == 4 {
			return out, nil
		}
	}
	return nil, fmt.Errorf("stream_rows: only %d of %d templates return %d-%d rows", len(out), len(streamTemplates), sc.streamRowsMin, sc.streamRowsMax)
}

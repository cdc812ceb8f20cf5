package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"

	"gtpq/internal/catalog"
	"gtpq/internal/core"
	"gtpq/internal/delta"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/reach"
	"gtpq/internal/shard"
	"gtpq/internal/snapshot"
)

// TestServeCostAdmission covers the estimate-driven admission path: a
// query whose cardinality estimate exceeds -cost-quota is rejected
// with 429 and the cost header before taking a worker slot, cheap
// queries still serve, the rejection counters surface in /metrics
// (globally and per dataset), and ?debug=1 carries the plan summary on evaluated
// responses.
func TestServeCostAdmission(t *testing.T) {
	ts, _ := newTestServer(t, Config{CostQuota: 100, CacheBytes: 1 << 20})

	post := func(path string, body interface{}) (*http.Response, map[string]interface{}) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
		return resp, out
	}

	// Cheap query on "small": estimate 2 (label a) + 2 (label b) = 4,
	// under the quota — served, with the estimate in header and body.
	resp, out := post("/query", map[string]interface{}{"dataset": "small", "query": abQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cheap query status %d: %v", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-GTPQ-Cost"); got != "4" {
		t.Fatalf("cheap query cost header = %q, want 4", got)
	}
	if est := out["cost_estimate"].(float64); est != 4 {
		t.Fatalf("cost_estimate = %v, want 4", est)
	}

	// Expensive query on "chain": 1500 label-a nodes at both pattern
	// nodes, estimate 3000 > 100 — rejected before evaluation.
	hot := "node x label=a output\nnode y label=a parent=x edge=ad output"
	for i := 0; i < 2; i++ {
		resp, out = post("/query", map[string]interface{}{"dataset": "chain", "query": hot})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("hot query status %d: %v", resp.StatusCode, out)
		}
		if got := resp.Header.Get("X-GTPQ-Cost"); got != "3000" {
			t.Fatalf("hot query cost header = %q, want 3000", got)
		}
	}

	// The NDJSON sink rejects the same way — header included — and the
	// cheap query carries the header on its streamed 200 too.
	nresp, lines := postNDJSON(t, ts.URL, map[string]interface{}{"dataset": "chain", "query": hot})
	if nresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hot NDJSON query status %d: %q", nresp.StatusCode, lines)
	}
	if got := nresp.Header.Get("X-GTPQ-Cost"); got != "3000" {
		t.Fatalf("hot NDJSON query cost header = %q, want 3000", got)
	}
	nresp, _ = postNDJSON(t, ts.URL, map[string]interface{}{"dataset": "small", "query": abQuery})
	if got := nresp.Header.Get("X-GTPQ-Cost"); nresp.StatusCode != http.StatusOK || got != "4" {
		t.Fatalf("cheap NDJSON query: status %d, cost header %q, want 200 and 4", nresp.StatusCode, got)
	}

	// The rejections are counted globally and per dataset.
	if got := metric(t, ts.URL, "gtpq_cost_rejected_total"); got != 3 {
		t.Fatalf("gtpq_cost_rejected_total = %v, want 3", got)
	}
	if got := metric(t, ts.URL, `gtpq_dataset_cost_rejected_total{dataset="chain"}`); got != 3 {
		t.Fatalf("chain cost rejections = %v, want 3", got)
	}
	if v, ok := sample(scrape(t, ts.URL), `gtpq_dataset_cost_rejected_total{dataset="small"}`); ok && v != 0 {
		t.Fatalf("small cost rejections = %v, want 0", v)
	}

	// ?debug=1: an evaluated response carries the plan summary, a
	// cache-served one does not (the cache stores answers, not plans).
	resp, out = post("/query?debug=1", map[string]interface{}{"dataset": "small", "query": "node x label=c output"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug query status %d: %v", resp.StatusCode, out)
	}
	plan, ok := out["plan"].(map[string]interface{})
	if !ok {
		t.Fatalf("debug response has no plan: %v", out)
	}
	if _, ok := plan["order"].([]interface{}); !ok {
		t.Fatalf("plan has no order: %v", plan)
	}
	resp, out = post("/query?debug=1", map[string]interface{}{"dataset": "small", "query": "node x label=c output"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached debug query status %d: %v", resp.StatusCode, out)
	}
	if out["cached"] != true {
		t.Fatalf("second debug query not cached: %v", out)
	}
	if _, ok := out["plan"]; ok {
		t.Fatalf("cached response carries a plan: %v", out)
	}
}

// TestEstimateOneSource pins the estimator across every dataset shape
// the catalog serves — flat JSON, a .snap revival, flat plus deltas,
// 3-shard wcc, 3-shard plus deltas, and both after Compact: for random
// queries (attribute predicates and unknown labels included),
// ds.Card.EstimateQuery equals a count taken straight from the logical
// graph, equals the planner's Σ EstCands on single-engine datasets, and
// is what the wire reports as cost_estimate / X-GTPQ-Cost.
func TestEstimateOneSource(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	labels := []string{"a", "b", "c"}
	g := gen.Forest(r, 5, 12, 20, labels)
	dir := t.TempDir()

	writeSharded := func(name string) {
		plan, err := shard.Partition(g, 3, shard.ModeWCC)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := shard.WriteDir(filepath.Join(dir, name), name, g, plan, shard.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	saveFlat(t, dir, "flat.json", g)
	h, err := reach.Build("tc", g, reach.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.SaveFile(filepath.Join(dir, "snap.snap"), g, h); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"delta", "compacted"} {
		saveFlat(t, dir, name+".json", g)
	}
	for _, name := range []string{"parted", "partdelta", "partcompacted"} {
		writeSharded(name)
	}

	cat, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(cat, Config{}).Handler())
	t.Cleanup(ts.Close)

	// Two batches per mutated dataset; "d" is a label the base lacks.
	logical := map[string]*graph.Graph{}
	for _, name := range []string{"flat", "snap", "parted"} {
		logical[name] = g
	}
	for _, name := range []string{"delta", "compacted", "partdelta", "partcompacted"} {
		var batches []delta.Batch
		n := g.N()
		for i := 0; i < 2; i++ {
			var b delta.Batch
			for j := 0; j < 3; j++ {
				b.Nodes = append(b.Nodes, delta.NodeAdd{Label: []string{"a", "b", "c", "d"}[r.Intn(4)]})
			}
			n += len(b.Nodes)
			for j := 0; j < 4; j++ {
				b.Edges = append(b.Edges, delta.EdgeAdd{From: graph.NodeID(r.Intn(n)), To: graph.NodeID(r.Intn(n))})
			}
			ds, err := cat.ApplyDelta(name, b)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ds.Release()
			batches = append(batches, b)
		}
		ext, err := delta.Extend(g, batches)
		if err != nil {
			t.Fatal(err)
		}
		logical[name] = ext
		if name == "compacted" || name == "partcompacted" {
			ds, err := cat.Compact(name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ds.Release()
		}
	}

	alphabet := append(labels, "d", "zzz")
	for _, name := range []string{"flat", "snap", "delta", "compacted", "parted", "partdelta", "partcompacted"} {
		lg := logical[name]
		ds, err := cat.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 12; qi++ {
			q := gen.Query(r, 1+r.Intn(5), alphabet, true, true)
			for u := range q.Nodes {
				if r.Intn(4) == 0 {
					q.Nodes[u].Attr = append(q.Nodes[u].Attr, core.Atom{Attr: "year", Op: core.GE, Val: graph.NumV(2000)})
				}
			}
			var want int64
			for _, n := range q.Nodes {
				if l, ok := n.Attr.LabelOnly(); ok {
					want += int64(len(lg.ByLabel(l)))
				} else {
					want += int64(lg.N())
				}
			}
			src := formatGenQuery(q)
			if got := ds.Card.EstimateQuery(q); got != want {
				t.Fatalf("%s q%d: Card estimate %d, logical graph %d\n%s", name, qi, got, want, src)
			}
			if eng, ok := ds.Engine.(*gtea.Engine); ok {
				_, st, err := eng.EvalStatsCtx(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				var plan int64
				for _, pn := range st.Plan.Nodes {
					plan += int64(pn.EstCands)
				}
				if plan != want {
					t.Fatalf("%s q%d: planner Σ EstCands %d, want %d\n%s", name, qi, plan, want, src)
				}
			}
			resp, out := postCost(t, ts.URL, name, src)
			wire, _ := out["cost_estimate"].(float64)
			header := resp.Header.Get("X-GTPQ-Cost")
			if int64(wire) != want || (want > 0 && header != strconv.FormatInt(want, 10)) {
				t.Fatalf("%s q%d: wire cost_estimate %v, header %q, want %d\n%s", name, qi, wire, header, want, src)
			}
		}
		ds.Release()
	}
}

// postCost runs one /query and returns the response with its body.
func postCost(t *testing.T, url, dataset, query string) (*http.Response, map[string]interface{}) {
	t.Helper()
	b, _ := json.Marshal(map[string]interface{}{"dataset": dataset, "query": query, "timeout_ms": 30000})
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %v", dataset, resp.StatusCode, out)
	}
	return resp, out
}

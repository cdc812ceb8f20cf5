// Package repl_test exercises the replication stack end to end: a
// real primary (internal/server over a catalog directory), a real
// replica catalog tailing it over HTTP, and — in the chaos tests —
// the fault injector sitting in the transport where a flaky network
// would. The external test package breaks the repl ← server import
// cycle.
package repl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/graph"
	"gtpq/internal/graphio"
	"gtpq/internal/obs"
	"gtpq/internal/repl"
	"gtpq/internal/server"
	"gtpq/internal/shard"
)

// equivQueries are compared between primary and replica after sync;
// they cover single-node scans and a two-node traversal pattern.
var equivQueries = []string{
	"node x label=a output",
	"node x label=b output",
	"node x label=c output",
	"node x label=a output\nnode y label=b parent=x edge=ad output",
}

// buildGraph returns the shared 8-node fixture.
func buildGraph() *graph.Graph {
	g := graph.New(8, 8)
	for _, l := range []string{"a", "b", "b", "c", "a", "c", "b", "a"} {
		g.AddNode(l, nil)
	}
	for _, e := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {4, 5}, {2, 3}, {6, 7}, {4, 6}, {1, 6}} {
		g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	g.Freeze()
	return g
}

// newPrimary spins a primary server over a fresh catalog directory
// holding dataset "d": flat JSON when shards is 0, a shard directory of
// that many shards otherwise.
func newPrimary(t *testing.T, shards int) (*httptest.Server, *catalog.Catalog) {
	t.Helper()
	dir := t.TempDir()
	g := buildGraph()
	if shards > 0 {
		plan, err := shard.Partition(g, shards, shard.ModeWCC)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := shard.WriteDir(filepath.Join(dir, "d"), "d", g, plan, shard.Options{}); err != nil {
			t.Fatal(err)
		}
	} else {
		var buf bytes.Buffer
		if err := graphio.Save(&buf, g); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "d.json"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return servePrimary(t, dir)
}

// servePrimary spins a primary server over the catalog directory dir.
func servePrimary(t *testing.T, dir string) (*httptest.Server, *catalog.Catalog) {
	t.Helper()
	cat, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(cat, server.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		cat.Close()
	})
	return ts, cat
}

// replica bundles one replica's moving parts.
type replica struct {
	tailer *repl.Tailer
	reg    *obs.Registry
	srv    *httptest.Server
	cat    *catalog.Catalog
	dir    string
}

// newReplica opens an empty replica catalog tailing through client
// and serves it read-only (so equivalence checks go through the same
// HTTP path as the primary's answers).
func newReplica(t *testing.T, client repl.Client, cfg repl.TailerConfig) *replica {
	t.Helper()
	return newReplicaIn(t, t.TempDir(), client, cfg)
}

// newReplicaIn is newReplica over the replica catalog directory dir,
// which may already hold files.
func newReplicaIn(t *testing.T, dir string, client repl.Client, cfg repl.TailerConfig) *replica {
	t.Helper()
	cat, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PollWait == 0 {
		cfg.PollWait = 50 * time.Millisecond
	}
	if cfg.Backoff.Min == 0 {
		cfg.Backoff = repl.Backoff{Min: time.Millisecond, Max: 20 * time.Millisecond}
	}
	tl := repl.NewTailer(cat, client, cfg)
	reg := obs.NewRegistry()
	tl.Register(reg)
	s := server.New(cat, server.Config{ReadOnly: true, ReadyCheck: tl.Ready, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	if err := tl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tl.Stop()
		ts.Close()
		cat.Close()
	})
	return &replica{tailer: tl, reg: reg, srv: ts, cat: cat, dir: dir}
}

// errCount reads one class of the tailer's gtpq_repl_errors_total.
func (r *replica) errCount(class string) int64 {
	return r.reg.CounterVec("gtpq_repl_errors_total", "", "class").With(class).Load()
}

// counter reads one scalar tailer counter by family name.
func (r *replica) counter(name string) int64 {
	return r.reg.Counter(name, "").Load()
}

// waitSync blocks until dataset "d" is fully caught up.
func (r *replica) waitSync(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.tailer.WaitSync(ctx, "d"); err != nil {
		t.Fatal(err)
	}
}

// postJSON posts body to url+path and returns status and raw body.
func postJSON(t *testing.T, url, path string, body interface{}) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp.StatusCode, out.Bytes()
}

// postUpdate appends n fresh nodes (labels cycling a/b/c) plus edges
// from existing vertices into the new ones, via the primary's HTTP
// API. base is the dataset's node count before this update.
func postUpdate(t *testing.T, url string, base, n int) {
	t.Helper()
	var nodes []map[string]interface{}
	var edges []map[string]interface{}
	for i := 0; i < n; i++ {
		nodes = append(nodes, map[string]interface{}{"label": string("abc"[i%3])})
		edges = append(edges, map[string]interface{}{"from": (base + i) / 2, "to": base + i})
	}
	code, body := postJSON(t, url, "/update", map[string]interface{}{
		"dataset": "d", "nodes": nodes, "edges": edges,
	})
	if code != http.StatusOK {
		t.Fatalf("update: status %d: %s", code, body)
	}
}

// canonicalRows runs one query and returns the comparable core of the
// answer (columns + rows as canonical JSON).
func canonicalRows(t *testing.T, url, query string) string {
	t.Helper()
	code, body := postJSON(t, url, "/query", map[string]interface{}{
		"dataset": "d", "query": query, "timeout_ms": 30000,
	})
	if code != http.StatusOK {
		t.Fatalf("query %q: status %d: %s", query, code, body)
	}
	var out struct {
		Columns []string  `json:"columns"`
		Rows    [][]int64 `json:"rows"`
		Error   string    `json:"error"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("query %q: %v: %s", query, err, body)
	}
	if out.Error != "" {
		t.Fatalf("query %q: %s", query, out.Error)
	}
	canon, err := json.Marshal(struct {
		C []string  `json:"c"`
		R [][]int64 `json:"r"`
	}{out.Columns, out.Rows})
	if err != nil {
		t.Fatal(err)
	}
	return string(canon)
}

// assertEquivalent fails unless primary and replica answer every
// equivalence query byte-identically.
func assertEquivalent(t *testing.T, primaryURL, replicaURL string) {
	t.Helper()
	assertSameAnswers(t, primaryURL, replicaURL, equivQueries)
}

// assertSameAnswers fails unless primary and replica answer every
// query byte-identically.
func assertSameAnswers(t *testing.T, primaryURL, replicaURL string, queries []string) {
	t.Helper()
	for _, q := range queries {
		p := canonicalRows(t, primaryURL, q)
		r := canonicalRows(t, replicaURL, q)
		if p != r {
			t.Errorf("divergent answer for %q:\nprimary: %s\nreplica: %s", q, p, r)
		}
	}
}

// fetchMetrics scrapes url/metrics and returns the text body.
func fetchMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	return buf.String()
}

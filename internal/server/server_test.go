package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/graphio"
	"gtpq/internal/obs"
	"gtpq/internal/shard"
)

// newTestServer spins a full stack — catalog directory, server,
// httptest listener on a random port — with two datasets: "small" (a
// 6-node toy) and "chain" (a 1500-node path of identical labels whose
// pair query enumerates ~1.1M tuples, used to exercise deadlines).
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	dir := t.TempDir()
	write := func(name string, g *graph.Graph) {
		var buf bytes.Buffer
		if err := graphio.Save(&buf, g); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	small := graph.New(6, 6)
	for _, l := range []string{"a", "b", "b", "c", "a", "c"} {
		small.AddNode(l, nil)
	}
	for _, e := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {4, 5}, {2, 3}} {
		small.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	small.Freeze()
	write("small.json", small)

	const n = 1500
	chain := graph.New(n, n-1)
	for i := 0; i < n; i++ {
		chain.AddNode("a", nil)
	}
	for i := 0; i < n-1; i++ {
		chain.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	chain.Freeze()
	write("chain.json", chain)

	cat, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(cat, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func postQuery(t *testing.T, url string, body interface{}) (int, map[string]interface{}) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

const abQuery = "node x label=a output\nnode y label=b parent=x edge=ad output"

// TestServeSingleQuery covers the basic single-query happy path plus
// /healthz and /datasets.
func TestServeSingleQuery(t *testing.T) {
	ts, _ := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	code, out := postQuery(t, ts.URL, map[string]interface{}{
		"dataset": "small",
		"query":   abQuery,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	rows := out["rows"].([]interface{})
	// Matches: x=0 with y∈{1,2}; node 4 has no b below it.
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if cols := out["columns"].([]interface{}); len(cols) != 2 || cols[0] != "x" || cols[1] != "y" {
		t.Fatalf("columns = %v", cols)
	}
	if out["stats"].(map[string]interface{})["results"].(float64) != 2 {
		t.Fatalf("stats = %v", out["stats"])
	}

	// /datasets lists both datasets, "small" loaded.
	dresp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var dl struct {
		Datasets []catalog.Info `json:"datasets"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&dl); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if len(dl.Datasets) != 2 || dl.Datasets[0].Name != "chain" || dl.Datasets[1].Name != "small" {
		t.Fatalf("datasets = %+v", dl.Datasets)
	}
	if !dl.Datasets[1].Loaded || dl.Datasets[0].Loaded {
		t.Fatalf("load state = %+v", dl.Datasets)
	}
}

// TestServeErrors covers the failure statuses: unknown dataset (404),
// bad query (400), malformed body (400).
func TestServeErrors(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	if code, _ := postQuery(t, ts.URL, map[string]interface{}{"dataset": "nope", "query": abQuery}); code != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d", code)
	}
	code, out := postQuery(t, ts.URL, map[string]interface{}{"dataset": "small", "query": "bogus directive"})
	if code != http.StatusBadRequest || !strings.Contains(out["error"].(string), "unknown directive") {
		t.Fatalf("bad query: %d %v", code, out)
	}
	if code, _ := postQuery(t, ts.URL, map[string]interface{}{"dataset": "small"}); code != http.StatusBadRequest {
		t.Fatalf("missing query: status %d", code)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
}

// TestServeConcurrentBatch fires concurrent batch requests and checks
// every item of every batch answers correctly.
func TestServeConcurrentBatch(t *testing.T) {
	ts, s := newTestServer(t, Config{Workers: 4, QueueDepth: 256})
	queries := []string{
		abQuery,
		"node x label=a output",
		"node x label=c output\npnode y label=b parent=x edge=ad\npred x: !y",
	}
	wantRows := []int{2, 2, 2} // (x,y) pairs (0,1),(0,2); a-nodes 0,4; both c-nodes lack a b descendant

	// Compute expected counts once through the API itself.
	code, out := postQuery(t, ts.URL, map[string]interface{}{"dataset": "small", "queries": queries})
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %v", code, out)
	}
	first := out["results"].([]interface{})
	if len(first) != len(queries) {
		t.Fatalf("batch returned %d results", len(first))
	}
	for i, r := range first {
		rm := r.(map[string]interface{})
		if e, ok := rm["error"]; ok && e != "" {
			t.Fatalf("batch item %d error: %v", i, e)
		}
		if got := len(rm["rows"].([]interface{})); got != wantRows[i] {
			t.Fatalf("batch item %d: %d rows, want %d", i, got, wantRows[i])
		}
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for cidx := 0; cidx < clients; cidx++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				code, out := postQuery(t, ts.URL, map[string]interface{}{
					"dataset": "small", "queries": queries,
				})
				if code != http.StatusOK {
					errs <- fmt.Sprintf("status %d", code)
					return
				}
				for i, r := range out["results"].([]interface{}) {
					rm := r.(map[string]interface{})
					if got := len(rm["rows"].([]interface{})); got != wantRows[i] {
						errs <- fmt.Sprintf("item %d: %d rows, want %d", i, got, wantRows[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if s.queries.Load() == 0 || s.queued.Load() != 0 {
		t.Fatalf("counters: queries=%d in_flight=%d", s.queries.Load(), s.queued.Load())
	}
}

// TestServeDeadlineCancelsEvaluation is the acceptance check: a
// per-request deadline aborts a long evaluation (the ~1.1M-tuple pair
// query on the chain dataset) and reports 504, promptly.
func TestServeDeadlineCancelsEvaluation(t *testing.T) {
	ts, s := newTestServer(t, Config{Workers: 2})

	// Warm the dataset so index build time is not part of the measure.
	code, _ := postQuery(t, ts.URL, map[string]interface{}{
		"dataset": "chain", "query": "node x label=a output", "timeout_ms": 30000,
	})
	if code != http.StatusOK {
		t.Fatalf("warmup status %d", code)
	}

	pair := "node x label=a output\nnode y label=a parent=x edge=ad output"
	start := time.Now()
	code, out := postQuery(t, ts.URL, map[string]interface{}{
		"dataset": "chain", "query": pair, "timeout_ms": 30,
	})
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %v", code, out)
	}
	if msg := out["error"].(string); !strings.Contains(msg, "deadline") {
		t.Fatalf("error = %q", msg)
	}
	// The full enumeration takes orders of magnitude longer than this.
	if elapsed > 5*time.Second {
		t.Fatalf("deadline request took %v", elapsed)
	}
	if s.timeouts.Load() == 0 {
		t.Fatal("timeout counter not incremented")
	}

	// Deadline errors inside a batch surface per item, not per request.
	code, out = postQuery(t, ts.URL, map[string]interface{}{
		"dataset": "chain", "queries": []string{"node x label=a output", pair}, "timeout_ms": 30,
	})
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	items := out["results"].([]interface{})
	fastErr, _ := items[0].(map[string]interface{})["error"].(string)
	slowErr, _ := items[1].(map[string]interface{})["error"].(string)
	if slowErr == "" || !strings.Contains(slowErr, "deadline") {
		t.Fatalf("slow item error = %q", slowErr)
	}
	_ = fastErr // the cheap item may or may not finish within 30ms under -race; either is fine
}

// TestServeShardedDataset is the scatter-gather e2e: a dataset stored
// as a sharded directory answers /query exactly like the same graph
// stored flat, /datasets reports shard counts and per-shard timings,
// and /metrics carries the same per-shard evaluation counters.
func TestServeShardedDataset(t *testing.T) {
	dir := t.TempDir()
	g := gen.Forest(rand.New(rand.NewSource(21)), 6, 12, 20, []string{"a", "b", "c"})
	var buf bytes.Buffer
	if err := graphio.Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "flat.json"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	plan, err := shard.Partition(g, 3, shard.ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.WriteDir(filepath.Join(dir, "parted"), "parted", g, plan, shard.Options{}); err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(cat, Config{}).Handler())
	defer ts.Close()

	for _, q := range []string{
		"node x label=a output",
		abQuery,
		"node x label=c output\npnode y label=b parent=x edge=ad\npred x: !y",
	} {
		codeF, outF := postQuery(t, ts.URL, map[string]interface{}{"dataset": "flat", "query": q})
		codeS, outS := postQuery(t, ts.URL, map[string]interface{}{"dataset": "parted", "query": q})
		if codeF != http.StatusOK || codeS != http.StatusOK {
			t.Fatalf("status flat=%d sharded=%d (%v / %v)", codeF, codeS, outF, outS)
		}
		fr, _ := json.Marshal(outF["rows"])
		sr, _ := json.Marshal(outS["rows"])
		if !bytes.Equal(fr, sr) {
			t.Fatalf("query %q: sharded rows differ\nflat    %s\nsharded %s", q, fr, sr)
		}
	}

	resp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var dl struct {
		Datasets []catalog.Info `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var parted *catalog.Info
	for i := range dl.Datasets {
		if dl.Datasets[i].Name == "parted" {
			parted = &dl.Datasets[i]
		}
	}
	if parted == nil || parted.Shards != 3 || parted.ShardMode != "wcc" {
		t.Fatalf("parted info = %+v", parted)
	}
	if len(parted.ShardInfo) != 3 {
		t.Fatalf("shard_info = %+v", parted.ShardInfo)
	}
	var evals float64
	body := scrape(t, ts.URL)
	for i := range parted.ShardInfo {
		v, ok := sample(body, fmt.Sprintf(`gtpq_shard_evals_total{dataset="parted",shard="%d"}`, i))
		if !ok || v != float64(parted.ShardInfo[i].Evals) {
			t.Fatalf("shard %d: /metrics evals %v (present %v), /datasets %d", i, v, ok, parted.ShardInfo[i].Evals)
		}
		evals += v
	}
	if evals == 0 {
		t.Fatal("per-shard evaluation counters never moved")
	}
}

// TestStatsConsistentUnderLoad scrapes /metrics while batches are in
// flight: every scrape must be a valid exposition, and the pool gauge
// must stay within its invariants.
func TestStatsConsistentUnderLoad(t *testing.T) {
	ts, s := newTestServer(t, Config{Workers: 2, QueueDepth: 64})
	queries := []string{abQuery, "node x label=a output", abQuery}

	stop := make(chan struct{})
	var producers sync.WaitGroup
	for c := 0; c < 4; c++ {
		producers.Add(1)
		go func() {
			defer producers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					postQuery(t, ts.URL, map[string]interface{}{"dataset": "small", "queries": queries})
				}
			}
		}()
	}

	cfgMax := float64(s.cfg.Workers + s.cfg.QueueDepth)
	for i := 0; i < 50; i++ {
		// Histogram invariants (cumulative buckets, _count == +Inf) hold
		// even while Observe races the scrape — each child is snapshotted
		// atomically, never mid-update.
		body := scrape(t, ts.URL)
		if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if v, ok := sample(body, "gtpq_in_flight"); !ok || v < 0 || v > cfgMax+1 {
			t.Fatalf("gtpq_in_flight = %v (present %v) outside [0, %v]", v, ok, cfgMax)
		}
	}
	close(stop)
	producers.Wait()

	// Quiesced: in-flight must drain to zero.
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in_flight stuck at %d after drain", s.queued.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeAdmissionControl floods a 1-worker, 1-slot-queue server
// with slow queries and checks overflow is shed with 429 instead of
// piling up.
func TestServeAdmissionControl(t *testing.T) {
	ts, s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, DefaultTimeout: 5 * time.Second})
	pair := "node x label=a output\nnode y label=a parent=x edge=ad output"

	// Warm up (loads + indexes the dataset).
	postQuery(t, ts.URL, map[string]interface{}{"dataset": "chain", "query": "node x label=a output"})

	const clients = 8
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = postQuery(t, ts.URL, map[string]interface{}{
				"dataset": "chain", "query": pair, "timeout_ms": 400,
			})
		}(i)
	}
	wg.Wait()
	var rejected int
	for _, c := range codes {
		if c == http.StatusTooManyRequests {
			rejected++
		}
	}
	// 1 running + 1 queued can be admitted; with 8 simultaneous slow
	// queries at least some must have been shed.
	if rejected == 0 {
		t.Fatalf("no request was shed: codes=%v rejected_counter=%d", codes, s.rejected.Load())
	}
}

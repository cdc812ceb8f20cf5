package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/graph"
	"gtpq/internal/graphio"
)

// newCacheTestServer builds a server with the result cache on, over a
// fresh directory the test can rewrite (for hot-reload checks).
// Returns the httptest server, the Server, and the dataset directory.
func newCacheTestServer(t *testing.T, cfg Config) (*httptest.Server, *Server, string) {
	t.Helper()
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 1 << 20
	}
	dir := t.TempDir()
	writeLineGraph(t, dir, "d.json", []string{"a", "b", "b", "a", "b"})
	cat, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(cat, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s, dir
}

// writeLineGraph writes labels[i] chained 0->1->2->... as a dataset.
func writeLineGraph(t *testing.T, dir, file string, labels []string) {
	t.Helper()
	g := graph.New(len(labels), len(labels)-1)
	for _, l := range labels {
		g.AddNode(l, nil)
	}
	for i := 0; i+1 < len(labels); i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g.Freeze()
	var buf bytes.Buffer
	if err := graphio.Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, file), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// touchFuture pushes a file's mtime forward so the catalog's hot-reload
// check sees a new source generation even within one timestamp tick.
func touchFuture(t *testing.T, path string, d time.Duration) {
	t.Helper()
	future := time.Now().Add(d)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
}

// TestCachedFlagSingle: first request computes (cached:false), the
// repeat hits (cached:true) with identical rows, and the cache
// counters record it.
func TestCachedFlagSingle(t *testing.T) {
	ts, s, _ := newCacheTestServer(t, Config{})
	var rows [2]string
	for i := 0; i < 2; i++ {
		code, out := postQuery(t, ts.URL, map[string]interface{}{"dataset": "d", "query": abQuery})
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %v", i, code, out)
		}
		if got := out["cached"].(bool); got != (i == 1) {
			t.Fatalf("request %d: cached = %v", i, got)
		}
		b, _ := json.Marshal(out["rows"])
		rows[i] = string(b)
	}
	if rows[0] != rows[1] || rows[0] == "[]" {
		t.Fatalf("cached rows diverged: %s vs %s", rows[0], rows[1])
	}
	st := s.Cache().Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evals != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("cache stats = %+v", st)
	}

	// Different spelling, same canonical query: still a hit.
	respell := "# same query, different text\nnode x label=a output\n\nnode y label=b parent=x edge=ad output"
	code, out := postQuery(t, ts.URL, map[string]interface{}{"dataset": "d", "query": respell})
	if code != http.StatusOK || out["cached"].(bool) != true {
		t.Fatalf("respelled query missed the cache: %d %v", code, out["cached"])
	}
}

// TestBatchDedupesAndFlagsPerEntry: canonically-equal batch entries
// evaluate once; each entry reports its own cached flag.
func TestBatchDedupesAndFlagsPerEntry(t *testing.T) {
	ts, s, _ := newCacheTestServer(t, Config{})
	batch := []string{
		abQuery,
		"node x label=a output",
		abQuery, // duplicate of entry 0
		"# comment only changes the text\nnode x label=a output", // duplicate of entry 1
	}
	code, out := postQuery(t, ts.URL, map[string]interface{}{"dataset": "d", "queries": batch})
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	results := out["results"].([]interface{})
	if len(results) != len(batch) {
		t.Fatalf("%d results", len(results))
	}
	var rowJSON []string
	for i, r := range results {
		rm := r.(map[string]interface{})
		if e, _ := rm["error"].(string); e != "" {
			t.Fatalf("entry %d error: %s", i, e)
		}
		b, _ := json.Marshal(rm["rows"])
		rowJSON = append(rowJSON, string(b))
		cached := rm["cached"].(bool)
		if want := i >= 2; cached != want {
			t.Fatalf("entry %d: cached = %v, want %v", i, cached, want)
		}
	}
	if rowJSON[0] != rowJSON[2] || rowJSON[1] != rowJSON[3] {
		t.Fatalf("deduplicated entries returned different rows: %v", rowJSON)
	}
	// The two unique queries each evaluated exactly once.
	if st := s.Cache().Stats(); st.Evals != 2 {
		t.Fatalf("evals = %d, want 2 (stats %+v)", st.Evals, st)
	}
	// Second identical batch: everything cached.
	_, out = postQuery(t, ts.URL, map[string]interface{}{"dataset": "d", "queries": batch})
	for i, r := range out["results"].([]interface{}) {
		if !r.(map[string]interface{})["cached"].(bool) {
			t.Fatalf("warm batch entry %d not cached", i)
		}
	}
	if st := s.Cache().Stats(); st.Evals != 2 {
		t.Fatalf("warm batch re-evaluated: evals = %d", st.Evals)
	}
}

// TestCancelledEvalNeverCached is the deadline regression test: a
// ctx-cancelled evaluation must not populate the cache with a partial
// (or empty) answer — the next request must evaluate fresh and return
// the full result.
func TestCancelledEvalNeverCached(t *testing.T) {
	dir := t.TempDir()
	// An 800-node single-label chain: the pair query enumerates ~320k
	// tuples, far beyond a 30ms deadline but fast enough to run to
	// completion under -race.
	labels := make([]string, 800)
	for i := range labels {
		labels[i] = "a"
	}
	writeLineGraph(t, dir, "chain.json", labels)
	cat, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(cat, Config{Workers: 2, CacheBytes: 256 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the dataset (and prove the scan caches normally).
	if code, _ := postQuery(t, ts.URL, map[string]interface{}{
		"dataset": "chain", "query": "node x label=a output", "timeout_ms": 30000,
	}); code != http.StatusOK {
		t.Fatalf("warmup status %d", code)
	}

	pair := "node x label=a output\nnode y label=a parent=x edge=ad output"
	code, out := postQuery(t, ts.URL, map[string]interface{}{
		"dataset": "chain", "query": pair, "timeout_ms": 30,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline run: status %d: %v", code, out)
	}
	if st := s.Cache().Stats(); st.Entries != 1 { // only the warmup scan
		t.Fatalf("cancelled evaluation left %d entries", st.Entries)
	}

	// The full run must compute fresh (cached:false) and return every
	// row; the repeat must hit and agree byte-for-byte.
	code, full := postQuery(t, ts.URL, map[string]interface{}{
		"dataset": "chain", "query": pair, "timeout_ms": 60000,
	})
	if code != http.StatusOK {
		t.Fatalf("full run: status %d: %v", code, full)
	}
	if full["cached"].(bool) {
		t.Fatal("full run claims cached after a cancelled attempt")
	}
	wantRows := 800 * 799 / 2
	if n := int(full["stats"].(map[string]interface{})["results"].(float64)); n != wantRows {
		t.Fatalf("full run results = %d, want %d", n, wantRows)
	}
	code, again := postQuery(t, ts.URL, map[string]interface{}{
		"dataset": "chain", "query": pair, "timeout_ms": 60000,
	})
	if code != http.StatusOK || !again["cached"].(bool) {
		t.Fatalf("repeat: status %d cached %v", code, again["cached"])
	}
	a, _ := json.Marshal(full["rows"])
	b, _ := json.Marshal(again["rows"])
	if !bytes.Equal(a, b) {
		t.Fatal("cached rows differ from computed rows")
	}
}

// TestCacheHammer is the satellite concurrency test (run under -race
// in CI): many goroutines hammer one dataset with an overlapping query
// set, asserting (a) hits+misses == cache requests, (b) singleflight
// coalescing kept evaluations below requests, and (c) a hot reload
// bumps the generation so no stale answer survives.
func TestCacheHammer(t *testing.T) {
	ts, s, dir := newCacheTestServer(t, Config{Workers: 4, QueueDepth: 256})
	queries := []string{
		abQuery,
		"node x label=a output",
		"node x label=b output",
		"node x label=a output\npnode y label=b parent=x edge=ad\npred x: !y",
	}

	const goroutines = 12
	const perG = 25
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q := queries[(gi+i)%len(queries)]
				code, out := postQuery(t, ts.URL, map[string]interface{}{"dataset": "d", "query": q})
				if code != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %v", code, out)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	const requests = goroutines * perG
	st := s.Cache().Stats()
	if st.Hits+st.Misses != requests {
		t.Fatalf("hits %d + misses %d != %d requests", st.Hits, st.Misses, requests)
	}
	if st.Evals >= requests {
		t.Fatalf("no coalescing/caching: evals %d >= requests %d", st.Evals, requests)
	}
	if st.Evals+st.Coalesced != st.Misses {
		t.Fatalf("misses %d != evals %d + coalesced %d", st.Misses, st.Evals, st.Coalesced)
	}

	// Hot reload with a different graph: b-nodes disappear, so a stale
	// cache would keep answering the b-scan with old rows.
	writeLineGraph(t, dir, "d.json", []string{"a", "a", "a"})
	touchFuture(t, filepath.Join(dir, "d.json"), 2*time.Second)
	code, out := postQuery(t, ts.URL, map[string]interface{}{"dataset": "d", "query": "node x label=b output"})
	if code != http.StatusOK {
		t.Fatalf("post-reload status %d", code)
	}
	if out["cached"].(bool) {
		t.Fatal("post-reload answer claims cached (stale generation served)")
	}
	if rows := out["rows"].([]interface{}); len(rows) != 0 {
		t.Fatalf("stale answer after reload: %v", rows)
	}
	// And the new generation caches independently.
	_, out = postQuery(t, ts.URL, map[string]interface{}{"dataset": "d", "query": "node x label=b output"})
	if !out["cached"].(bool) {
		t.Fatal("post-reload repeat did not cache")
	}
}

// TestCacheSingleflightColdHerd fires a herd at one cold query and
// requires exactly one evaluation.
func TestCacheSingleflightColdHerd(t *testing.T) {
	ts, s, _ := newCacheTestServer(t, Config{Workers: 2, QueueDepth: 64})
	const herd = 16
	var wg sync.WaitGroup
	rowJSON := make([]string, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, out := postQuery(t, ts.URL, map[string]interface{}{"dataset": "d", "query": abQuery, "timeout_ms": 30000})
			if code != http.StatusOK {
				t.Errorf("herd %d: status %d", i, code)
				return
			}
			b, _ := json.Marshal(out["rows"])
			rowJSON[i] = string(b)
		}(i)
	}
	wg.Wait()
	for i := 1; i < herd; i++ {
		if rowJSON[i] != rowJSON[0] {
			t.Fatalf("herd member %d saw different rows", i)
		}
	}
	if st := s.Cache().Stats(); st.Evals != 1 {
		t.Fatalf("cold herd ran %d evaluations, want 1 (stats %+v)", st.Evals, st)
	}
}

// TestStatsAndDatasetsReportCache checks the cache counters surface in
// /metrics (global and per-dataset families), that /datasets is the
// plain catalog listing with no counter copies, and that /stats is gone.
func TestStatsAndDatasetsReportCache(t *testing.T) {
	ts, _, _ := newCacheTestServer(t, Config{})
	postQuery(t, ts.URL, map[string]interface{}{"dataset": "d", "query": abQuery})
	postQuery(t, ts.URL, map[string]interface{}{"dataset": "d", "query": abQuery})

	body := scrape(t, ts.URL)
	for series, want := range map[string]float64{
		"gtpq_cache_hits_total":                        1,
		"gtpq_cache_misses_total":                      1,
		`gtpq_cache_dataset_hits_total{dataset="d"}`:   1,
		`gtpq_cache_dataset_misses_total{dataset="d"}`: 1,
	} {
		if got, ok := sample(body, series); !ok || got != want {
			t.Fatalf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	for _, series := range []string{"gtpq_cache_bytes", `gtpq_cache_dataset_bytes{dataset="d"}`} {
		if got, _ := sample(body, series); got <= 0 {
			t.Fatalf("%s = %v, want > 0", series, got)
		}
	}

	resp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var dl struct {
		Datasets []map[string]interface{} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(dl.Datasets) != 1 || dl.Datasets[0]["name"] != "d" {
		t.Fatalf("/datasets = %+v", dl.Datasets)
	}
	for _, k := range []string{"cache", "cost_rejected"} {
		if _, ok := dl.Datasets[0][k]; ok {
			t.Fatalf("/datasets entry carries %q: %+v", k, dl.Datasets[0])
		}
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /stats = %d, want 404", resp.StatusCode)
	}

	// A cache-disabled server exports no cache families.
	tsOff, _ := newTestServer(t, Config{})
	if _, ok := sample(scrape(t, tsOff.URL), "gtpq_cache_max_bytes"); ok {
		t.Fatal("cache-disabled server exports gtpq_cache_max_bytes")
	}
}

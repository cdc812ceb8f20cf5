package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"gtpq/internal/catalog"
	"gtpq/internal/delta"
)

func postJSON(t *testing.T, url string, body interface{}) (int, map[string]interface{}) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

// rowCount runs the a→b pair query and returns the row count.
func rowCount(t *testing.T, url string) (int, bool) {
	t.Helper()
	code, out := postQuery(t, url, map[string]interface{}{"dataset": "small", "query": abQuery})
	if code != http.StatusOK {
		t.Fatalf("query: status %d: %v", code, out)
	}
	rows := out["rows"].([]interface{})
	cached, _ := out["cached"].(bool)
	return len(rows), cached
}

// TestUpdateServedImmediately is the acceptance path: POST /update →
// the very next query reflects the new vertices and edges, the dataset
// generation advances, and a warm result cache never serves the
// pre-update answer.
func TestUpdateServedImmediately(t *testing.T) {
	ts, s := newTestServer(t, Config{CacheBytes: 1 << 20})

	generation := func() float64 {
		resp, err := http.Get(ts.URL + "/datasets")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Datasets []map[string]interface{} `json:"datasets"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		for _, d := range out.Datasets {
			if d["name"] == "small" {
				gen, _ := d["generation"].(float64)
				return gen
			}
		}
		t.Fatal("dataset small missing from listing")
		return 0
	}

	// Warm the cache with the pre-update answer.
	if n, _ := rowCount(t, ts.URL); n != 2 {
		t.Fatalf("pre-update rows = %d, want 2", n)
	}
	if n, cached := rowCount(t, ts.URL); n != 2 || !cached {
		t.Fatalf("pre-update warm query: rows=%d cached=%v", n, cached)
	}
	genBefore := generation()

	// Append one b-labeled vertex and an edge from the a at id 4.
	code, out := postJSON(t, ts.URL+"/update", map[string]interface{}{
		"dataset": "small",
		"nodes":   []map[string]interface{}{{"label": "b", "attrs": map[string]interface{}{"year": 2026}}},
		"edges":   []map[string]interface{}{{"from": 4, "to": 6}},
	})
	if code != http.StatusOK {
		t.Fatalf("update: status %d: %v", code, out)
	}
	if got := out["pending_ops"].(float64); got != 2 {
		t.Fatalf("pending_ops = %v, want 2", got)
	}
	if out["compacted"].(bool) {
		t.Fatal("update auto-compacted with CompactAfter unset")
	}

	// The next query sees the new pair immediately — the cached
	// 2-row answer belongs to the previous generation.
	if n, cached := rowCount(t, ts.URL); n != 3 || cached {
		t.Fatalf("post-update query: rows=%d cached=%v, want 3 fresh rows", n, cached)
	}
	if genAfter := generation(); genAfter <= genBefore {
		t.Fatalf("generation %v did not advance past %v", genAfter, genBefore)
	}
	// And the update survives on disk for the next process.
	logPath := filepath.Join(catalogDir(t, s), "small"+delta.LogSuffix)
	if _, err := os.Stat(logPath); err != nil {
		t.Fatalf("delta log not persisted: %v", err)
	}

	// /metrics reports the write-path counters.
	if got := metric(t, ts.URL, "gtpq_updates_total"); got != 1 {
		t.Fatalf("gtpq_updates_total = %v", got)
	}
	if got := metric(t, ts.URL, `gtpq_delta_pending_ops{dataset="small"}`); got != 2 {
		t.Fatalf("gtpq_delta_pending_ops = %v", got)
	}
}

// TestUpdateValidation covers the rejection paths: unknown dataset,
// empty batch, out-of-range endpoints, bad attribute types.
func TestUpdateValidation(t *testing.T) {
	ts, s := newTestServer(t, Config{})
	cases := []map[string]interface{}{
		{"dataset": "nope", "edges": []map[string]interface{}{{"from": 0, "to": 1}}},
		{"dataset": "small"},
		{"dataset": "small", "edges": []map[string]interface{}{{"from": 0, "to": 999}}},
		{"dataset": "small", "edges": []map[string]interface{}{{"from": -1, "to": 0}}},
		{"dataset": "small", "nodes": []map[string]interface{}{{"label": "a", "attrs": map[string]interface{}{"bad": []int{1}}}}},
	}
	for i, body := range cases {
		code, out := postJSON(t, ts.URL+"/update", body)
		if code == http.StatusOK {
			t.Fatalf("case %d accepted: %v", i, out)
		}
	}
	if got := s.updates.Load(); got != 0 {
		t.Fatalf("updates counter = %d after rejections", got)
	}
	// The dataset still answers and holds no deltas.
	if n, _ := rowCount(t, ts.URL); n != 2 {
		t.Fatalf("rows after rejected updates = %d", n)
	}
}

// TestUpdateOnClosedCatalog is a shutdown race: an /update that
// reaches a catalog whose Close already ran is refused with 503, not
// reported as an internal fault.
func TestUpdateOnClosedCatalog(t *testing.T) {
	ts, s := newTestServer(t, Config{})
	if err := s.cat.Close(); err != nil {
		t.Fatal(err)
	}
	body := map[string]interface{}{"dataset": "small", "edges": []map[string]interface{}{{"from": 0, "to": 5}}}
	if code, out := postJSON(t, ts.URL+"/update", body); code != http.StatusServiceUnavailable {
		t.Fatalf("/update after Close: status %d, want 503: %v", code, out)
	}
	_, err := s.cat.ApplyDelta("small", delta.Batch{Edges: []delta.EdgeAdd{{From: 0, To: 5}}})
	if !errors.Is(err, catalog.ErrClosed) {
		t.Fatalf("ApplyDelta after Close: %v, want catalog.ErrClosed", err)
	}
}

// TestUpdateAutoCompaction drives pending mutations across the
// -compact-after threshold: the triggering response reports the fold,
// the log disappears, pending counters reset, and answers include
// every applied edge.
func TestUpdateAutoCompaction(t *testing.T) {
	ts, s := newTestServer(t, Config{CompactAfter: 3})

	// Two single-edge updates stay under the threshold of 3...
	for i := 0; i < 2; i++ {
		code, out := postJSON(t, ts.URL+"/update", map[string]interface{}{
			"dataset": "small",
			"edges":   []map[string]interface{}{{"from": 4, "to": 1 + i}},
		})
		if code != http.StatusOK || out["compacted"].(bool) {
			t.Fatalf("update %d: status %d compacted=%v", i, code, out["compacted"])
		}
	}
	// ...the third crosses it.
	code, out := postJSON(t, ts.URL+"/update", map[string]interface{}{
		"dataset": "small",
		"edges":   []map[string]interface{}{{"from": 0, "to": 4}},
	})
	if code != http.StatusOK {
		t.Fatalf("triggering update: status %d: %v", code, out)
	}
	if !out["compacted"].(bool) {
		t.Fatalf("threshold update not compacted: %v", out)
	}
	if got := out["pending_ops"].(float64); got != 0 {
		t.Fatalf("pending_ops after compaction = %v", got)
	}
	logPath := filepath.Join(catalogDir(t, s), "small"+delta.LogSuffix)
	if _, err := os.Stat(logPath); !os.IsNotExist(err) {
		t.Fatalf("delta log survived compaction: %v", err)
	}
	if got := s.compactions.Load(); got != 1 {
		t.Fatalf("compactions counter = %d", got)
	}
	// 4→1 and 4→2 add two a→b pairs on top of the original two.
	if n, _ := rowCount(t, ts.URL); n != 4 {
		t.Fatalf("rows after compaction = %d, want 4", n)
	}
}

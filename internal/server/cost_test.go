package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// TestServeCostAdmission covers the estimate-driven admission path: a
// query whose cardinality estimate exceeds -cost-quota is rejected
// with 429 and the cost header before taking a worker slot, cheap
// queries still serve, the rejection counters surface in /stats and
// /datasets, and ?debug=1 carries the plan summary on evaluated
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
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]interface{}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if got := stats["cost_rejected"].(float64); got != 3 {
		t.Fatalf("stats cost_rejected = %v, want 3", got)
	}
	if got := stats["config"].(map[string]interface{})["cost_quota"].(float64); got != 100 {
		t.Fatalf("stats config cost_quota = %v, want 100", got)
	}
	dresp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var dl struct {
		Datasets []struct {
			Name         string `json:"name"`
			CostRejected int64  `json:"cost_rejected"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&dl); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	for _, d := range dl.Datasets {
		want := int64(0)
		if d.Name == "chain" {
			want = 3
		}
		if d.CostRejected != want {
			t.Fatalf("dataset %s cost_rejected = %d, want %d", d.Name, d.CostRejected, want)
		}
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

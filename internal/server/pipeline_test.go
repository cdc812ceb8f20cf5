package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestErrorStatusMatrix checks that a request rejected anywhere along
// the pipeline answers the same HTTP status and the same error text
// whether the client asked for JSON or NDJSON.
func TestErrorStatusMatrix(t *testing.T) {
	ts, s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, CostQuota: 2000})

	token := func(dataset, query string, limit int) string {
		t.Helper()
		code, out := postPage(t, ts.URL, dataset, query, limit, "")
		cursor, _ := out["next_cursor"].(string)
		if code != http.StatusOK || cursor == "" {
			t.Fatalf("minting a cursor on %s: status %d: %v", dataset, code, out)
		}
		return cursor
	}
	chainToken := token("chain", chainAll, 100)
	smallToken := token("small", abQuery, 1)
	if code, out := postJSON(t, ts.URL+"/update", map[string]interface{}{
		"dataset": "small", "nodes": []map[string]interface{}{{"label": "c"}},
	}); code != http.StatusOK {
		t.Fatalf("update: status %d: %v", code, out)
	}

	cases := []struct {
		name   string
		body   map[string]interface{}
		status int
		errHas string
		// hold, when set, puts the worker pool in the state the case
		// needs and returns the undo.
		hold func() func()
	}{
		{name: "parse error",
			body:   map[string]interface{}{"dataset": "small", "query": "bogus directive"},
			status: http.StatusBadRequest, errHas: "unknown directive"},
		{name: "bad cursor",
			body:   map[string]interface{}{"dataset": "chain", "query": chainAll, "limit": 10, "cursor": "not!a!token"},
			status: http.StatusBadRequest, errHas: "invalid cursor"},
		{name: "cross-query cursor",
			body:   map[string]interface{}{"dataset": "chain", "query": chainPair, "limit": 10, "cursor": chainToken},
			status: http.StatusBadRequest, errHas: "different query"},
		{name: "cross-dataset cursor",
			body:   map[string]interface{}{"dataset": "small", "query": chainAll, "limit": 10, "cursor": chainToken},
			status: http.StatusBadRequest, errHas: "dataset"},
		{name: "expired cursor",
			body:   map[string]interface{}{"dataset": "small", "query": abQuery, "limit": 1, "cursor": smallToken},
			status: http.StatusGone, errHas: "cursor expired: "},
		{name: "over quota",
			body:   map[string]interface{}{"dataset": "chain", "query": chainPair},
			status: http.StatusTooManyRequests, errHas: "estimated cost 3000 exceeds dataset quota 2000"},
		{name: "overloaded",
			body:   map[string]interface{}{"dataset": "chain", "query": chainAll},
			status: http.StatusTooManyRequests, errHas: errOverloaded.Error(),
			hold: func() func() {
				s.queued.Add(2) // 1 running + 1 queued: the pool is full
				return func() { s.queued.Add(-2) }
			}},
		{name: "deadline",
			body:   map[string]interface{}{"dataset": "chain", "query": chainAll, "timeout_ms": 20},
			status: http.StatusGatewayTimeout, errHas: "deadline",
			hold: func() func() {
				s.sem <- struct{}{} // the only worker is busy past the deadline
				return func() { <-s.sem }
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.hold != nil {
				defer tc.hold()()
			}
			code, out := postQuery(t, ts.URL, tc.body)
			jsonErr, _ := out["error"].(string)
			if code != tc.status || !strings.Contains(jsonErr, tc.errHas) {
				t.Fatalf("JSON: status %d error %q, want %d containing %q", code, jsonErr, tc.status, tc.errHas)
			}
			resp, lines := postNDJSON(t, ts.URL, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("NDJSON: status %d, JSON answered %d: %q", resp.StatusCode, code, lines)
			}
			var nd struct {
				Error string `json:"error"`
			}
			if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &nd) != nil || nd.Error != jsonErr {
				t.Fatalf("NDJSON: body %q, JSON's error was %q", lines, jsonErr)
			}
		})
	}
}

package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gtpq/internal/catalog"
	"gtpq/internal/gen"
	"gtpq/internal/shard"
)

// delivery is what one full drain of a query through one delivery mode
// produced, whatever the number of requests it took.
type delivery struct {
	columns  []interface{}
	rows     []interface{}
	requests int64
	cached   bool // every response reported cached
}

// ndjsonDrain runs body as NDJSON requests, following next_cursor until
// the stream is exhausted, and checks each response's framing counts.
func ndjsonDrain(t *testing.T, url string, body map[string]interface{}) delivery {
	t.Helper()
	d := delivery{cached: true}
	for {
		resp, lines := postNDJSON(t, url, body)
		if resp.StatusCode != http.StatusOK || len(lines) < 2 {
			t.Fatalf("NDJSON %v: status %d, lines %q", body, resp.StatusCode, lines)
		}
		var head struct {
			Columns []interface{} `json:"columns"`
			Cached  bool          `json:"cached"`
		}
		var trailer struct {
			Rows       int64  `json:"rows"`
			NextCursor string `json:"next_cursor"`
			Error      string `json:"error"`
			Stats      struct {
				Results int64 `json:"results"`
			} `json:"stats"`
		}
		if err := json.Unmarshal([]byte(lines[0]), &head); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
			t.Fatal(err)
		}
		n := int64(len(lines) - 2)
		if trailer.Error != "" || trailer.Rows != n || trailer.Stats.Results != n {
			t.Fatalf("NDJSON %v: %d row lines, trailer %+v", body, n, trailer)
		}
		for _, line := range lines[1 : len(lines)-1] {
			var row struct {
				Row []interface{} `json:"row"`
			}
			if err := json.Unmarshal([]byte(line), &row); err != nil {
				t.Fatal(err)
			}
			d.rows = append(d.rows, row.Row)
		}
		d.columns = head.Columns
		d.cached = d.cached && head.Cached
		d.requests++
		if trailer.NextCursor == "" {
			return d
		}
		body["cursor"] = trailer.NextCursor
	}
}

// jsonDrain is ndjsonDrain's counterpart on the JSON sink.
func jsonDrain(t *testing.T, url string, body map[string]interface{}) delivery {
	t.Helper()
	d := delivery{cached: true}
	for {
		code, out := postQuery(t, url, body)
		if code != http.StatusOK {
			t.Fatalf("JSON %v: status %d: %v", body, code, out)
		}
		rows := out["rows"].([]interface{})
		_, paged := body["limit"]
		if res := int(out["stats"].(map[string]interface{})["results"].(float64)); res != len(rows) {
			t.Fatalf("JSON %v: stats.results = %d, %d rows delivered (paged=%t)", body, res, len(rows), paged)
		}
		d.rows = append(d.rows, rows...)
		d.columns = out["columns"].([]interface{})
		d.cached = d.cached && out["cached"].(bool)
		d.requests++
		next, _ := out["next_cursor"].(string)
		if next == "" {
			return d
		}
		body["cursor"] = next
	}
}

// TestDeliveryMatrix is the one-pipeline property: the same queries
// through every delivery mode, from every answer source, over a flat
// and a sharded layout of the same graph, yield the same columns and
// the same row sequence, report stats.results equal to the rows they
// delivered, and move the serving counters by exactly what the mode and
// source imply — nothing depends on which sink or which engine ran.
func TestDeliveryMatrix(t *testing.T) {
	labels := []string{"a", "b", "c"}
	r := rand.New(rand.NewSource(5))
	g := gen.Forest(r, 4, 40, 90, labels)
	dir := t.TempDir()
	saveFlat(t, dir, "flat.json", g)
	plan, err := shard.Partition(g, 3, shard.ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.WriteDir(filepath.Join(dir, "parted"), "parted", g, plan, shard.Options{}); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"node x label=a output",
		abQuery,
		"node x label=c output\npnode y label=b parent=x edge=ad\npred x: !y",
		"node x label=a output\nnode y label=b parent=x edge=ad output\nnode z label=c parent=x edge=ad output",
	}
	for len(queries) < 7 {
		queries = append(queries, formatGenQuery(gen.Query(r, 2+r.Intn(3), labels, true, true)))
	}

	const pageSize = 16
	type mode struct {
		name   string
		stream bool
		drain  func(t *testing.T, url string, body map[string]interface{}) delivery
		limit  int
	}
	// Streamed modes first: on a cold cache they must each miss (a
	// streamed miss never populates the cache); the unwindowed JSON
	// request is the one that would warm it.
	modes := []mode{
		{"json-paged", true, jsonDrain, pageSize},
		{"ndjson", true, ndjsonDrain, 0},
		{"ndjson-limit", true, ndjsonDrain, pageSize},
		{"json", false, jsonDrain, 0},
	}

	// want[query] is the reference delivery, fixed by the first cell.
	want := map[string]delivery{}
	multiPage := false
	for _, source := range []string{"off", "cold", "warm"} {
		cfg := Config{}
		if source != "off" {
			cfg.CacheBytes = 8 << 20
		}
		cat, err := catalog.Open(dir, catalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := New(cat, cfg)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)

		for _, dataset := range []string{"flat", "parted"} {
			for _, q := range queries {
				if source == "warm" {
					jsonDrain(t, ts.URL, map[string]interface{}{"dataset": dataset, "query": q})
				}
				for _, m := range modes {
					cell := fmt.Sprintf("%s/%s/%s %q", source, dataset, m.name, q)
					body := map[string]interface{}{"dataset": dataset, "query": q}
					if m.limit > 0 {
						body["limit"] = m.limit
					}
					q0, rs0, by0 := s.queries.Load(), s.rowsStreamed.Load(), s.streamBypass.Load()
					got := m.drain(t, ts.URL, body)

					ref, ok := want[q]
					if !ok {
						ref = got
						want[q] = got
					}
					if !reflect.DeepEqual(got.columns, ref.columns) {
						t.Fatalf("%s: columns %v, want %v", cell, got.columns, ref.columns)
					}
					if !reflect.DeepEqual(got.rows, ref.rows) {
						t.Fatalf("%s: %d rows diverge from the reference's %d", cell, len(got.rows), len(ref.rows))
					}
					if got.cached != (source == "warm") {
						t.Fatalf("%s: cached = %t", cell, got.cached)
					}
					wantRequests := int64(1)
					if m.limit > 0 && len(ref.rows) > m.limit {
						wantRequests = int64((len(ref.rows) + m.limit - 1) / m.limit)
						multiPage = true
					}
					var wantStreamed, wantBypass int64
					if m.stream {
						wantStreamed = int64(len(ref.rows))
						if source == "cold" {
							wantBypass = wantRequests
						}
					}
					if got.requests != wantRequests {
						t.Fatalf("%s: drained in %d requests, want %d", cell, got.requests, wantRequests)
					}
					if d := s.queries.Load() - q0; d != wantRequests {
						t.Fatalf("%s: gtpq_queries_total moved by %d, want %d", cell, d, wantRequests)
					}
					if d := s.rowsStreamed.Load() - rs0; d != wantStreamed {
						t.Fatalf("%s: gtpq_rows_streamed_total moved by %d, want %d", cell, d, wantStreamed)
					}
					if d := s.streamBypass.Load() - by0; d != wantBypass {
						t.Fatalf("%s: gtpq_stream_cache_bypass_total moved by %d, want %d", cell, d, wantBypass)
					}
				}
			}
		}
	}
	if !multiPage {
		t.Fatal("no query produced more than one page: the paged cells tested nothing")
	}
}

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

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// chainAll enumerates every node of the "chain" test dataset: 1500
// rows, a comfortable multi-page result.
const chainAll = "node x label=a output"

// chainPair is the ancestor-descendant pair query over "chain": ~1.1M
// rows, far more than any client should want materialized.
const chainPair = "node x label=a output\nnode y label=a parent=x edge=ad output"

// postPage posts one paged query and decodes the single-query response.
func postPage(t *testing.T, url, dataset, query string, limit int, cursor string) (int, map[string]interface{}) {
	t.Helper()
	body := map[string]interface{}{"dataset": dataset, "query": query}
	if limit != 0 {
		body["limit"] = limit
	}
	if cursor != "" {
		body["cursor"] = cursor
	}
	return postQuery(t, url, body)
}

// TestPaginationRoundTrip pages through a 1500-row result and checks
// the concatenated pages reproduce the unpaged response exactly: same
// rows, same order, no duplicates, no gaps, cursor absent on the last
// page.
func TestPaginationRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, Config{})

	code, full := postPage(t, ts.URL, "chain", chainAll, 0, "")
	if code != http.StatusOK {
		t.Fatalf("unpaged: status %d: %v", code, full)
	}
	want := full["rows"].([]interface{})
	if len(want) != 1500 {
		t.Fatalf("unpaged rows = %d, want 1500", len(want))
	}
	if _, ok := full["next_cursor"]; ok {
		t.Fatal("unpaged response carries a cursor")
	}

	var got []interface{}
	cursor := ""
	pages := 0
	for {
		code, out := postPage(t, ts.URL, "chain", chainAll, 400, cursor)
		if code != http.StatusOK {
			t.Fatalf("page %d: status %d: %v", pages, code, out)
		}
		rows := out["rows"].([]interface{})
		got = append(got, rows...)
		pages++
		next, _ := out["next_cursor"].(string)
		if next == "" {
			if len(rows) == 400 && len(got) < len(want) {
				t.Fatalf("page %d full but no continuation cursor", pages)
			}
			break
		}
		if len(rows) != 400 {
			t.Fatalf("page %d: %d rows, want 400", pages, len(rows))
		}
		cursor = next
		if pages > 10 {
			t.Fatal("pagination did not terminate")
		}
	}
	if pages != 4 {
		t.Fatalf("paged through %d pages, want 4", pages)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paged rows differ from unpaged: %d vs %d rows", len(got), len(want))
	}
}

// TestPaginationEdgeCases covers the window-boundary contract: limit
// overshoot and continuation without a limit (rejected tokens are in
// TestErrorStatusMatrix).
func TestPaginationEdgeCases(t *testing.T) {
	ts, _ := newTestServer(t, Config{})

	// Overshoot: limit beyond the result returns everything, no cursor.
	code, out := postPage(t, ts.URL, "chain", chainAll, 5000, "")
	if code != http.StatusOK {
		t.Fatalf("overshoot: status %d: %v", code, out)
	}
	if n := len(out["rows"].([]interface{})); n != 1500 {
		t.Fatalf("overshoot rows = %d, want 1500", n)
	}
	if c, _ := out["next_cursor"].(string); c != "" {
		t.Fatal("overshoot page carries a continuation cursor")
	}

	// A cursor without a limit streams the whole remainder.
	code, out = postPage(t, ts.URL, "chain", chainAll, 100, "")
	if code != http.StatusOK {
		t.Fatalf("first page: status %d: %v", code, out)
	}
	cursor, _ := out["next_cursor"].(string)
	if cursor == "" {
		t.Fatal("first page returned no cursor")
	}
	code, out = postPage(t, ts.URL, "chain", chainAll, 0, cursor)
	if code != http.StatusOK {
		t.Fatalf("remainder: status %d: %v", code, out)
	}
	if n := len(out["rows"].([]interface{})); n != 1400 {
		t.Fatalf("remainder rows = %d, want 1400", n)
	}
	if c, _ := out["next_cursor"].(string); c != "" {
		t.Fatal("exhausted remainder still carries a cursor")
	}
}

// TestPaginationMaxRowsDefaultsPageSize checks MaxRows doubles as the
// page ceiling: an unlimited request gets MaxRows rows plus a cursor
// (instead of the unpaged path's silent truncation), and an explicit
// larger limit is clamped to it.
func TestPaginationMaxRowsDefaultsPageSize(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxRows: 300})

	code, out := postPage(t, ts.URL, "chain", chainAll, 1000, "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if n := len(out["rows"].([]interface{})); n != 300 {
		t.Fatalf("clamped page = %d rows, want 300", n)
	}
	if c, _ := out["next_cursor"].(string); c == "" {
		t.Fatal("clamped page missing continuation cursor")
	}
}

// TestCursorExpiresOnGenerationBump is the 410 contract: a dataset
// mutation invalidates every outstanding cursor, because row positions
// are only stable within one hot-reload generation.
func TestCursorExpiresOnGenerationBump(t *testing.T) {
	ts, _ := newTestServer(t, Config{CacheBytes: 1 << 20})

	code, out := postPage(t, ts.URL, "small", abQuery, 1, "")
	if code != http.StatusOK {
		t.Fatalf("first page: status %d: %v", code, out)
	}
	cursor, _ := out["next_cursor"].(string)
	if cursor == "" {
		t.Fatal("first page returned no cursor")
	}

	code, upd := postJSON(t, ts.URL+"/update", map[string]interface{}{
		"dataset": "small",
		"nodes":   []map[string]interface{}{{"label": "c"}},
	})
	if code != http.StatusOK {
		t.Fatalf("update: status %d: %v", code, upd)
	}

	code, out = postPage(t, ts.URL, "small", abQuery, 1, cursor)
	if code != http.StatusGone {
		t.Fatalf("stale cursor: status %d, want 410: %v", code, out)
	}
	if msg, _ := out["error"].(string); !strings.HasPrefix(msg, "cursor expired: ") {
		t.Fatalf("stale cursor error = %q", out["error"])
	}
}

// postNDJSON performs one Accept: application/x-ndjson query and
// returns the response plus its body lines.
func postNDJSON(t *testing.T, url string, body interface{}) (*http.Response, []string) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading NDJSON body: %v", err)
	}
	return resp, lines
}

// TestNDJSONFraming is the framing golden test: one valid JSON object
// per line — an exact head record, one {"row":[...]} per result, and a
// trailer with the row count and evaluation stats.
func TestNDJSONFraming(t *testing.T) {
	ts, _ := newTestServer(t, Config{})

	resp, lines := postNDJSON(t, ts.URL, map[string]interface{}{"dataset": "small", "query": abQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	// abQuery on "small" has exactly 2 rows: head + 2 rows + trailer.
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4: %q", len(lines), lines)
	}
	// Head golden: field order and values are part of the contract.
	if want := `{"dataset":"small","columns":["x","y"],"cached":false}`; lines[0] != want {
		t.Fatalf("head line = %s\nwant        %s", lines[0], want)
	}
	for i, line := range lines {
		var obj map[string]interface{}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not a JSON object: %v\n%s", i, err, line)
		}
	}
	// Row lines carry exactly one key.
	for _, line := range lines[1:3] {
		var row struct {
			Row []float64 `json:"row"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil || len(row.Row) != 2 {
			t.Fatalf("malformed row line %s (err %v)", line, err)
		}
	}
	var trailer struct {
		Done       bool                   `json:"done"`
		Rows       int64                  `json:"rows"`
		NextCursor string                 `json:"next_cursor"`
		Stats      map[string]interface{} `json:"stats"`
		Error      string                 `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[3]), &trailer); err != nil {
		t.Fatalf("trailer: %v", err)
	}
	if !trailer.Done || trailer.Rows != 2 || trailer.Error != "" || trailer.NextCursor != "" {
		t.Fatalf("trailer = %+v", trailer)
	}
	if trailer.Stats == nil || trailer.Stats["results"].(float64) != 2 {
		t.Fatalf("trailer stats = %v", trailer.Stats)
	}

	// Rows must match the JSON path byte for byte.
	_, full := postQuery(t, ts.URL, map[string]interface{}{"dataset": "small", "query": abQuery})
	for i, want := range full["rows"].([]interface{}) {
		var row struct {
			Row []interface{} `json:"row"`
		}
		json.Unmarshal([]byte(lines[1+i]), &row)
		if !reflect.DeepEqual(row.Row, want) {
			t.Fatalf("NDJSON row %d = %v, JSON path has %v", i, row.Row, want)
		}
	}
}

// TestNDJSONPagination checks the limit/cursor window applies to NDJSON
// too: a capped stream ends with a continuation cursor whose resumption
// yields the remaining rows.
func TestNDJSONPagination(t *testing.T) {
	ts, _ := newTestServer(t, Config{})

	resp, lines := postNDJSON(t, ts.URL, map[string]interface{}{
		"dataset": "chain", "query": chainAll, "limit": 1000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(lines) != 1002 { // head + 1000 rows + trailer
		t.Fatalf("got %d lines, want 1002", len(lines))
	}
	var trailer struct {
		Rows       int64  `json:"rows"`
		NextCursor string `json:"next_cursor"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatal(err)
	}
	if trailer.Rows != 1000 || trailer.NextCursor == "" {
		t.Fatalf("trailer = %+v", trailer)
	}

	resp, lines = postNDJSON(t, ts.URL, map[string]interface{}{
		"dataset": "chain", "query": chainAll, "cursor": trailer.NextCursor,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume status %d", resp.StatusCode)
	}
	if len(lines) != 502 { // head + 500 remaining + trailer
		t.Fatalf("resume got %d lines, want 502", len(lines))
	}

	// Batch NDJSON is refused up front.
	resp, lines = postNDJSON(t, ts.URL, map[string]interface{}{
		"dataset": "small", "queries": []string{abQuery, abQuery},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch NDJSON: status %d, body %q", resp.StatusCode, lines)
	}
}

// TestBatchEntriesDistinctLimitsNotDeduped is the dedup-key fix: two
// batch entries with identical canonical text but different result
// windows must answer independently — the follower must not receive the
// leader's page.
func TestBatchEntriesDistinctLimitsNotDeduped(t *testing.T) {
	ts, _ := newTestServer(t, Config{CacheBytes: 1 << 20})

	code, out := postQuery(t, ts.URL, map[string]interface{}{
		"dataset": "chain",
		"entries": []map[string]interface{}{
			{"query": chainAll},
			{"query": chainAll, "limit": 5},
			{"query": chainAll, "limit": 5},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	results := out["results"].([]interface{})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	r0 := results[0].(map[string]interface{})
	r1 := results[1].(map[string]interface{})
	r2 := results[2].(map[string]interface{})
	if n := len(r0["rows"].([]interface{})); n != 1500 {
		t.Fatalf("unlimited entry got %d rows, want 1500", n)
	}
	if n := len(r1["rows"].([]interface{})); n != 5 {
		t.Fatalf("limit=5 entry got %d rows, want 5 — deduped onto the unlimited leader?", n)
	}
	if c, _ := r1["next_cursor"].(string); c == "" {
		t.Fatal("limit=5 entry missing continuation cursor")
	}
	// Identical window → still deduped onto its leader.
	if cached, _ := r2["cached"].(bool); !cached {
		t.Fatal("identical limit=5 entries were not deduped")
	}
	if n := len(r2["rows"].([]interface{})); n != 5 {
		t.Fatalf("deduped entry got %d rows, want 5", n)
	}
}

// TestNDJSONClientDisconnectReleasesSlot abandons a huge NDJSON stream
// after the first bytes and checks the worker slot comes back: with a
// single worker, a follow-up query must succeed promptly instead of
// queueing behind a zombie drain.
func TestNDJSONClientDisconnectReleasesSlot(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1, MaxTimeout: time.Minute})

	// The chain pair query enumerates ~1.1M tuples — far more than the
	// client reads before hanging up.
	body, _ := json.Marshal(map[string]interface{}{
		"dataset": "chain", "query": chainPair, "timeout_ms": 60000,
	})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("reading stream head: %v", err)
	}
	resp.Body.Close() // hang up mid-stream

	// The server notices on its next write/poll; the slot must free in
	// time for this query to pass admission (Workers=1, QueueDepth=1).
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, out := postQuery(t, ts.URL, map[string]interface{}{"dataset": "small", "query": abQuery})
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker slot never freed after disconnect: status %d: %v", code, out)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

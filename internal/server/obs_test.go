package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gtpq/internal/obs"
)

// syncBuffer makes a bytes.Buffer safe to read while the access-log
// middleware writes it from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Lines(t *testing.T) []string {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	s := strings.TrimSpace(b.buf.String())
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// scrape returns url's /metrics exposition.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// sample reads one series (`name` or `name{labels}`) out of an
// exposition; ok is false when the series is absent.
func sample(body, series string) (v float64, ok bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, found := strings.CutPrefix(line, series+" "); found {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// metric scrapes url and returns one series' value, failing when absent.
func metric(t *testing.T, url, series string) float64 {
	t.Helper()
	body := scrape(t, url)
	v, ok := sample(body, series)
	if !ok {
		t.Fatalf("/metrics has no %s:\n%s", series, body)
	}
	return v
}

// TestRequestIDHeader checks both directions of the request-ID
// middleware: an inbound X-GTPQ-Request-ID is adopted verbatim, and a
// request without one gets a fresh 16-hex-char ID.
func TestRequestIDHeader(t *testing.T) {
	ts, _ := newTestServer(t, Config{})

	body := []byte(`{"dataset":"small","query":"node x label=a output"}`)
	req, err := http.NewRequest("POST", ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestIDHeader, "caller-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(requestIDHeader); got != "caller-supplied-42" {
		t.Fatalf("inbound request ID not adopted: got %q", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get(requestIDHeader)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("generated request ID %q is not 16 hex chars", id)
	}
}

// TestDebugTraceAndRequestID checks the ?debug=1 attachments: the
// response echoes the request ID and carries a span tree whose stages
// include the engine phases.
func TestDebugTraceAndRequestID(t *testing.T) {
	ts, _ := newTestServer(t, Config{})

	body := []byte(`{"dataset":"small","query":"` + strings.ReplaceAll(abQuery, "\n", `\n`) + `"}`)
	req, err := http.NewRequest("POST", ts.URL+"/query?debug=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestIDHeader, "trace-me")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		RequestID string    `json:"request_id"`
		Trace     *obs.Span `json:"trace"`
		Rows      [][]int   `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.RequestID != "trace-me" {
		t.Fatalf("debug response request_id = %q, want trace-me", out.RequestID)
	}
	if out.Trace == nil {
		t.Fatal("debug response carries no trace")
	}
	if out.Trace.Millis < 0 {
		t.Fatalf("root span still open: ms = %v", out.Trace.Millis)
	}
	names := map[string]bool{}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		names[s.Name] = true
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(out.Trace)
	for _, want := range []string{"admit", "plan", "candidates", "enumerate"} {
		if !names[want] {
			t.Fatalf("trace missing span %q (got %v)", want, names)
		}
	}

	// Without ?debug=1 neither field appears.
	_, plain := postQuery(t, ts.URL, map[string]interface{}{"dataset": "small", "query": abQuery})
	if _, ok := plain["trace"]; ok {
		t.Fatal("trace attached without debug=1")
	}
	if _, ok := plain["request_id"]; ok {
		t.Fatal("request_id attached without debug=1")
	}
}

// TestSlowlogCapture runs a query under a zero-ish threshold and
// checks it lands in GET /debug/slowlog with its trace stages; a
// server without a threshold reports enabled:false.
func TestSlowlogCapture(t *testing.T) {
	ts, _ := newTestServer(t, Config{SlowLogThreshold: time.Nanosecond, SlowLogSize: 4})

	body := []byte(`{"dataset":"small","query":"` + strings.ReplaceAll(abQuery, "\n", `\n`) + `"}`)
	req, err := http.NewRequest("POST", ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestIDHeader, "slow-one")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Enabled     bool            `json:"enabled"`
		ThresholdMS int64           `json:"threshold_ms"`
		Size        int             `json:"size"`
		Total       int64           `json:"total"`
		Entries     []obs.SlowEntry `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Enabled || out.Size != 4 {
		t.Fatalf("slowlog config not reported: %+v", out)
	}
	if out.Total < 1 || len(out.Entries) < 1 {
		t.Fatalf("slow query not captured: total=%d entries=%d", out.Total, len(out.Entries))
	}
	e := out.Entries[0]
	if e.Dataset != "small" || e.RequestID != "slow-one" {
		t.Fatalf("slowlog entry mismatch: %+v", e)
	}
	if !strings.Contains(e.Query, "label=a") {
		t.Fatalf("slowlog entry query = %q", e.Query)
	}
	if len(e.Stages) == 0 {
		t.Fatal("slowlog entry carries no stage timings")
	}

	// Disabled server: enabled:false, no entries.
	ts2, _ := newTestServer(t, Config{})
	resp, err = http.Get(ts2.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var off struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&off); err != nil {
		t.Fatal(err)
	}
	if off.Enabled {
		t.Fatal("slowlog reported enabled without a threshold")
	}
}

// TestAccessLogJSON checks the structured request log: one JSON line
// per request with the middleware's fields.
func TestAccessLogJSON(t *testing.T) {
	buf := &syncBuffer{}
	ts, _ := newTestServer(t, Config{AccessLog: buf})

	postQuery(t, ts.URL, map[string]interface{}{"dataset": "small", "query": "node x label=a output"})
	lines := buf.Lines(t)
	if len(lines) != 1 {
		t.Fatalf("want 1 access-log line, got %d: %v", len(lines), lines)
	}
	var line struct {
		RequestID string  `json:"request_id"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		Millis    float64 `json:"ms"`
		Dataset   string  `json:"dataset"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &line); err != nil {
		t.Fatalf("access log line is not JSON: %q: %v", lines[0], err)
	}
	if line.Method != "POST" || line.Path != "/query" || line.Status != 200 || line.Dataset != "small" {
		t.Fatalf("access log line mismatch: %+v", line)
	}
	if line.RequestID == "" || line.Millis < 0 {
		t.Fatalf("access log line incomplete: %+v", line)
	}
}

// TestMetricsExposition checks /metrics end to end: valid exposition,
// the per-dataset latency histogram present after a query, and the
// core counters carrying the served traffic.
func TestMetricsExposition(t *testing.T) {
	ts, _ := newTestServer(t, Config{})

	for i := 0; i < 3; i++ {
		postQuery(t, ts.URL, map[string]interface{}{"dataset": "small", "query": abQuery})
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("exposition Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(bytes.NewReader(raw)); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	body := string(raw)
	for _, want := range []string{
		`gtpq_query_seconds_bucket{dataset="small",index="threehop",le="+Inf"} 3`,
		`gtpq_query_seconds_count{dataset="small",index="threehop"} 3`,
		"gtpq_queries_total 3",
		"gtpq_requests_total",
		"gtpq_in_flight",
		"gtpq_workers",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"gtpq/internal/obs"
)

// Observability wiring: the server's counters live in an obs.Registry,
// scraped at GET /metrics — their only view. Per-query traces, the
// slow-query ring log, the request-ID middleware, and the structured
// access log are all here so the serving logic in server.go stays
// about serving.

// requestIDHeader carries the request ID in both directions: an
// inbound value is adopted (so a caller's ID follows the request into
// logs and the slowlog), otherwise the server generates one.
const requestIDHeader = "X-GTPQ-Request-ID"

// initMetrics registers every server-owned metric on s.reg. Counters
// are registry children (the server increments them directly); values
// derived from existing state (pool depth, uptime, slowlog totals)
// are func-backed and read at scrape time.
func (s *Server) initMetrics() {
	reg := s.reg
	s.requests = reg.Counter("gtpq_requests_total", "HTTP query/update requests handled.")
	s.queries = reg.Counter("gtpq_queries_total", "Queries received (batch entries count individually).")
	s.rejected = reg.Counter("gtpq_rejected_total", "Admissions shed with 429: worker pool and queue full.")
	s.costRejected = reg.Counter("gtpq_cost_rejected_total", "Queries shed before admission by the cost quota.")
	s.costRejectedBy = reg.CounterVec("gtpq_dataset_cost_rejected_total", "Cost-quota rejections by dataset.", "dataset")
	s.timeouts = reg.Counter("gtpq_timeouts_total", "Evaluations aborted by deadline or cancellation.")
	s.failures = reg.Counter("gtpq_failures_total", "Failed queries: parse errors, unknown datasets, evaluation errors.")
	s.rows = reg.Counter("gtpq_rows_returned_total", "Result rows returned, after per-response row capping.")
	s.updates = reg.Counter("gtpq_updates_total", "Mutation batches applied.")
	s.updateFailures = reg.Counter("gtpq_update_failures_total", "Rejected or failed mutation batches.")
	s.compactions = reg.Counter("gtpq_compactions_total", "Delta-log folds this process performed after updates.")
	s.compactFailures = reg.Counter("gtpq_compact_failures_total", "Failed auto-compaction attempts (the update itself succeeded).")
	s.indexLookups = reg.Counter("gtpq_index_lookups_total", "Reachability index probes charged to fresh evaluations (3-hop list entries or closure words).")
	s.rowsStreamed = reg.Counter("gtpq_rows_streamed_total", "Result rows delivered through the streaming path: NDJSON lines and cursor-paginated pages.")
	s.streamBypass = reg.Counter("gtpq_stream_cache_bypass_total", "Streamed evaluations that deliberately bypassed the result cache (bounded-memory policy: streamed answers are never materialized for caching).")
	s.queryLatency = reg.HistogramVec("gtpq_query_seconds",
		"End-to-end query latency by dataset and reachability backend, cache hits included.",
		obs.DefLatencyBuckets, "dataset", "index")
	reg.GaugeFunc("gtpq_in_flight", "Admissions currently waiting or running.",
		func() float64 { return float64(s.queued.Load()) })
	reg.GaugeFunc("gtpq_workers", "Configured worker slots.",
		func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFunc("gtpq_queue_depth", "Configured admission queue depth.",
		func() float64 { return float64(s.cfg.QueueDepth) })
	reg.GaugeFunc("gtpq_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	if s.slow != nil {
		reg.CounterFunc("gtpq_slowlog_entries_total", "Queries that crossed the slow-query threshold.",
			func() float64 { return float64(s.slow.Total()) })
	}
}

// reqInfo is the middleware's per-request record. The handler chain
// fills dataset/cost as it learns them; the middleware reads them
// after ServeHTTP returns (the handler's internal goroutines are
// joined by then, but batch eval goroutines race each other on cost,
// hence the atomic).
type reqInfo struct {
	id      string
	dataset string
	cost    atomic.Int64
}

type reqInfoKey struct{}

func withReqInfo(ctx context.Context, ri *reqInfo) context.Context {
	return context.WithValue(ctx, reqInfoKey{}, ri)
}

func reqInfoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// requestIDFrom returns the current request's ID ("" for a context
// the request-ID middleware did not wrap).
func requestIDFrom(ctx context.Context) string {
	if ri := reqInfoFrom(ctx); ri != nil {
		return ri.id
	}
	return ""
}

// newRequestID returns a 16-hex-char random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000" // rand.Read failing means bigger problems
	}
	return hex.EncodeToString(b[:])
}

// statusWriter records the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// streaming handlers (SSE, NDJSON) can flush through the middleware.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// accessLine is one structured access-log record (JSON, one per line).
type accessLine struct {
	Time      string  `json:"time"`
	RequestID string  `json:"request_id"`
	Method    string  `json:"method"`
	Path      string  `json:"path"`
	Status    int     `json:"status"`
	Millis    float64 `json:"ms"`
	Dataset   string  `json:"dataset,omitempty"`
	// CostEstimate is the admission-time estimate of the request's last
	// priced query (batches report one representative value).
	CostEstimate int64 `json:"cost_estimate,omitempty"`
}

// instrument wraps the API with the request-ID and access-log
// middleware: every response carries X-GTPQ-Request-ID (inbound value
// adopted, else generated), and with an access log configured every
// request writes one JSON line.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ri := &reqInfo{id: r.Header.Get(requestIDHeader)}
		if ri.id == "" {
			ri.id = newRequestID()
		}
		w.Header().Set(requestIDHeader, ri.id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(withReqInfo(r.Context(), ri)))

		if s.cfg.AccessLog == nil {
			return
		}
		line, err := json.Marshal(accessLine{
			Time:         start.UTC().Format(time.RFC3339Nano),
			RequestID:    ri.id,
			Method:       r.Method,
			Path:         r.URL.Path,
			Status:       sw.status,
			Millis:       float64(time.Since(start).Microseconds()) / 1000,
			Dataset:      ri.dataset,
			CostEstimate: ri.cost.Load(),
		})
		if err != nil {
			return
		}
		s.logMu.Lock()
		s.cfg.AccessLog.Write(append(line, '\n'))
		s.logMu.Unlock()
	})
}

// handleMetrics serves the Prometheus exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Handler().ServeHTTP(w, r)
}

// handleSlowlog serves the slow-query ring, newest first.
func (s *Server) handleSlowlog(w http.ResponseWriter, _ *http.Request) {
	if s.slow == nil {
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"enabled": false,
			"entries": []obs.SlowEntry{},
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"enabled":      true,
		"threshold_ms": s.cfg.SlowLogThreshold.Milliseconds(),
		"size":         s.cfg.SlowLogSize,
		"total":        s.slow.Total(),
		"dropped":      s.slow.Dropped(),
		"entries":      s.slow.Entries(),
	})
}

// Package server exposes the GTPQ engine over HTTP/JSON for
// long-running serving:
//
//	POST /query      evaluate one query or a batch on a named dataset
//	POST /subscribe  standing query: SSE stream of result changes
//	POST /update     append vertices/edges to a dataset (served at once)
//	GET  /datasets   list datasets and their load state
//	GET  /metrics    Prometheus exposition: every serving counter
//	GET  /healthz    liveness probe
//
// Evaluations run through an admission-controlled worker pool: at most
// Workers queries evaluate concurrently, at most QueueDepth more wait
// for a slot, and anything beyond that is rejected with 429 so heavy
// traffic degrades by shedding load instead of collapsing. Every
// request carries a deadline (client-chosen via timeout_ms, clamped to
// MaxTimeout) that cancels the evaluation itself through the engine's
// context-aware path — a stuck or oversized query stops consuming its
// worker slot the moment its deadline passes.
//
// With CacheBytes set, a result cache (internal/qcache) sits in front
// of the pool: repeated queries against an unchanged dataset are
// answered from memory without taking a worker slot, concurrent
// identical misses coalesce into one evaluation, and batch requests
// deduplicate canonically-equal entries before evaluating. Cache keys
// carry the catalog's hot-reload generation, so a reloaded dataset
// can never serve stale answers; a context-cancelled evaluation never
// populates the cache. Responses report per-query `cached`.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/obs"
	"gtpq/internal/qcache"
	"gtpq/internal/repl"
	"gtpq/internal/sub"
)

// Config tunes the server; zero values take sensible defaults.
type Config struct {
	// Workers caps concurrent evaluations (default GOMAXPROCS).
	Workers int
	// QueueDepth caps evaluations waiting for a worker slot before
	// admission control rejects with 429 (default 4 × Workers).
	QueueDepth int
	// DefaultTimeout applies when a request names none (default 2s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines (default 30s).
	MaxTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 4 MiB).
	MaxBodyBytes int64
	// MaxRows caps result rows returned per query; responses note
	// truncation. Paged and NDJSON responses use it as the default (and
	// maximum) page size instead, handing back a continuation cursor. 0
	// means unlimited.
	MaxRows int
	// CacheBytes bounds the result cache by the total bytes of cached
	// answers; 0 disables caching. Full answers are cached (MaxRows
	// truncation happens per response), keyed by (dataset, generation,
	// canonical query, index kind).
	CacheBytes int64
	// CompactAfter auto-compacts a dataset's delta log once its pending
	// mutation count reaches this threshold (checked after each
	// /update); 0 disables auto-compaction — deltas accumulate until an
	// explicit fold (gtpq-compact).
	CompactAfter int
	// CostQuota rejects a query with 429 (plus an X-GTPQ-Cost header)
	// when its estimated evaluation cost — the summed per-node candidate
	// estimates over the served engine's label counts — exceeds this
	// value. The check runs before the query takes a worker slot; cache
	// hits are unaffected. 0 disables cost-based admission.
	CostQuota int64
	// Registry receives every server metric (scraped at GET /metrics);
	// nil creates a private registry. The cache and catalog register
	// their own families on the same registry.
	Registry *obs.Registry
	// SlowLogThreshold enables the slow-query ring log (GET
	// /debug/slowlog): queries at least this slow are recorded with
	// their plan summary and per-stage trace timings. 0 disables it.
	SlowLogThreshold time.Duration
	// SlowLogSize caps the ring (default 128 when the threshold is set).
	SlowLogSize int
	// AccessLog, when non-nil, receives one structured JSON line per
	// request (method, path, status, latency, request ID, dataset, cost
	// estimate). Writes are serialized by the server.
	AccessLog io.Writer
	// ReadOnly rejects POST /update with 403. Replicas run read-only:
	// their datasets mutate only through the replication tailer, and a
	// client write landing on a replica would fork its history from the
	// primary's log.
	ReadOnly bool
	// ReadyCheck, when set, contributes to GET /readyz: ok=false (with
	// the not-ready dataset names) reports the process unfit for
	// routing. Replicas plug their tailer's lag check in here.
	ReadyCheck func() (ok bool, notReady []string)
	// MaxSubs caps concurrently attached standing-query streams (POST
	// /subscribe); beyond it new subscriptions are rejected with 429.
	// Default 1024.
	MaxSubs int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.SlowLogThreshold > 0 && c.SlowLogSize <= 0 {
		c.SlowLogSize = 128
	}
	return c
}

// Server handles the HTTP API over one dataset catalog.
type Server struct {
	cat     *catalog.Catalog
	cfg     Config
	sem     chan struct{} // worker slots
	cache   *qcache.Cache // nil when CacheBytes is 0
	start   time.Time
	reg     *obs.Registry
	slow    *obs.SlowLog // nil when SlowLogThreshold is 0
	replSrc *repl.Source // serves /repl/log and /repl/base
	subs    *sub.Registry

	queued atomic.Int64 // waiting + running admissions
	logMu  sync.Mutex   // serializes AccessLog writes

	// Serving counters, owned by the metrics registry (initMetrics) and
	// scraped at /metrics.
	requests        *obs.Counter
	queries         *obs.Counter
	rejected        *obs.Counter
	costRejected    *obs.Counter
	costRejectedBy  *obs.CounterVec // by dataset
	timeouts        *obs.Counter
	failures        *obs.Counter
	rows            *obs.Counter
	updates         *obs.Counter
	updateFailures  *obs.Counter
	compactions     *obs.Counter
	compactFailures *obs.Counter
	indexLookups    *obs.Counter
	rowsStreamed    *obs.Counter
	streamBypass    *obs.Counter
	queryLatency    *obs.HistogramVec // by dataset, index kind
}

// New builds a server over cat.
func New(cat *catalog.Catalog, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cat:     cat,
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.Workers),
		start:   time.Now(),
		reg:     reg,
		replSrc: &repl.Source{Cat: cat},
	}
	if cfg.SlowLogThreshold > 0 {
		s.slow = obs.NewSlowLog(cfg.SlowLogSize)
	}
	s.initMetrics()
	if cfg.CacheBytes > 0 {
		s.cache = qcache.New(cfg.CacheBytes)
		s.cache.Register(reg)
	}
	s.subs = sub.New(cat, sub.Config{
		MaxSubs:       cfg.MaxSubs,
		Registry:      reg,
		SlowLog:       s.slow,
		SlowThreshold: cfg.SlowLogThreshold,
	})
	cat.Register(reg)
	return s
}

// Subs exposes the standing-query registry (tests and embedders).
func (s *Server) Subs() *sub.Registry { return s.subs }

// CloseSubscriptions shuts the standing-query registry down, closing
// every attached SSE stream. Graceful shutdown calls it BEFORE the
// HTTP server's Shutdown — open event streams otherwise count as
// active connections and stall the drain until their clients leave.
func (s *Server) CloseSubscriptions() { s.subs.Close() }

// Registry exposes the server's metric registry (tests and embedders
// scrape it directly).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Cache exposes the result cache (nil when disabled); used by tests
// and metrics exporters.
func (s *Server) Cache() *qcache.Cache { return s.cache }

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /subscribe", s.handleSubscribe)
	mux.HandleFunc("POST /update", s.handleUpdate)
	mux.HandleFunc("GET /datasets", s.handleDatasets)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/slowlog", s.handleSlowlog)
	// /healthz is pure liveness (the process answers); /readyz is
	// readiness (every dataset loaded, replication within its lag
	// bound) — the router routes on the latter only.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /repl/log", s.replSrc.ServeLog)
	mux.HandleFunc("GET /repl/base", s.replSrc.ServeBase)
	return s.instrument(mux)
}

// errOverloaded is the admission-control rejection.
var errOverloaded = errors.New("server overloaded: worker pool and queue full")

// admit claims a worker slot, waiting at most until ctx's deadline and
// only if the wait queue has room.
func (s *Server) admit(ctx context.Context) error {
	if int(s.queued.Add(1)) > s.cfg.Workers+s.cfg.QueueDepth {
		s.queued.Add(-1)
		s.rejected.Add(1)
		return errOverloaded
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.queued.Add(-1)
		return ctx.Err()
	}
}

// done releases the slot claimed by a successful admit.
func (s *Server) done() {
	<-s.sem
	s.queued.Add(-1)
}

// requestContext derives the evaluation context: the client-requested
// timeout (clamped to MaxTimeout) or the default.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return context.WithTimeout(r.Context(), timeout)
}

// Drain waits until no admission is in flight (queued hits zero) or
// ctx expires. Graceful shutdown calls it after the HTTP server stops
// accepting, so every admitted evaluation and update runs to
// completion — and the catalog's delta logs can then be flushed with
// nothing left writing to them.
func (s *Server) Drain(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.queued.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain: %d admissions still in flight: %w", s.queued.Load(), ctx.Err())
		case <-tick.C:
		}
	}
}

// queryRequest is the POST /query body. Exactly one of
// Query/Queries/Entries must be set; Queries and Entries evaluate as a
// concurrent batch (Entries additionally carries per-entry pagination).
// Limit and Cursor at the top level apply to every entry that does not
// override them.
type queryRequest struct {
	Dataset   string       `json:"dataset"`
	Query     string       `json:"query,omitempty"`
	Queries   []string     `json:"queries,omitempty"`
	Entries   []queryEntry `json:"entries,omitempty"`
	Limit     int          `json:"limit,omitempty"`
	Cursor    string       `json:"cursor,omitempty"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
}

// queryEntry is one batch entry with its own pagination window.
type queryEntry struct {
	Query  string `json:"query"`
	Limit  int    `json:"limit,omitempty"`
	Cursor string `json:"cursor,omitempty"`
}

// queryResult is one evaluation outcome.
type queryResult struct {
	Columns   []string         `json:"columns,omitempty"`
	Rows      [][]graph.NodeID `json:"rows"`
	Truncated bool             `json:"truncated,omitempty"`
	// NextCursor is the opaque continuation token of a paged response:
	// POSTing it back (with the same dataset and query) resumes the
	// result stream after this page's last row. Absent on the last page
	// and on unpaged responses. Tokens are generation-pinned — after a
	// dataset mutation they answer 410 Gone.
	NextCursor string `json:"next_cursor,omitempty"`
	// Cached reports the rows came without a fresh evaluation: a result
	// cache hit, a coalesced in-flight miss, or a deduplicated batch
	// entry sharing another entry's evaluation.
	Cached bool         `json:"cached"`
	Stats  *resultStats `json:"stats,omitempty"`
	// CostEstimate is the admission-time cost estimate (summed per-node
	// candidate estimates); present whenever it is non-zero, including
	// on cost rejections.
	CostEstimate int64 `json:"cost_estimate,omitempty"`
	// Plan is the planner's record (per-node kernel,
	// estimated vs actual cardinalities); only populated under ?debug=1
	// on fresh evaluations by one engine: a flat file, a one-shard
	// directory, or any dataset with pending deltas. A K > 1 scatter's
	// stats aggregate across shards, whose per-shard plans differ.
	Plan  *gtea.PlanInfo `json:"plan,omitempty"`
	Error string         `json:"error,omitempty"`
	// RequestID echoes X-GTPQ-Request-ID and Trace carries the
	// per-stage span tree of this evaluation; both only under ?debug=1.
	RequestID string    `json:"request_id,omitempty"`
	Trace     *obs.Span `json:"trace,omitempty"`

	// status is the HTTP status a single-query response answers with
	// (batch responses are always 200); never encoded.
	status int
}

type resultStats struct {
	Input        int64   `json:"input"`
	PruneInput   int64   `json:"prune_input"`
	EnumInput    int64   `json:"enum_input"`
	IndexLookups int64   `json:"index_lookups"`
	Intermediate int64   `json:"intermediate"`
	Results      int64   `json:"results"`
	EvalMillis   float64 `json:"eval_ms"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req queryRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid JSON body: %v", err))
		return
	}
	if req.Dataset == "" {
		httpError(w, http.StatusBadRequest, "missing \"dataset\"")
		return
	}
	forms := 0
	for _, set := range []bool{req.Query != "", len(req.Queries) > 0, len(req.Entries) > 0} {
		if set {
			forms++
		}
	}
	if forms != 1 {
		httpError(w, http.StatusBadRequest, "set exactly one of \"query\", \"queries\" and \"entries\"")
		return
	}
	single := req.Query != ""
	if ri := reqInfoFrom(r.Context()); ri != nil {
		ri.dataset = req.Dataset
	}

	// Acquire before starting the clock: a cold dataset's load or
	// index build must not be charged against the query deadline.
	ds, err := s.cat.Acquire(req.Dataset)
	if err != nil {
		s.failures.Add(1)
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	defer ds.Release()

	// Normalize the three request forms into entries; top-level
	// limit/cursor fill per-entry gaps.
	entries := req.Entries
	switch {
	case single:
		entries = []queryEntry{{Query: req.Query, Limit: req.Limit, Cursor: req.Cursor}}
	case len(req.Queries) > 0:
		entries = make([]queryEntry, len(req.Queries))
		for i, src := range req.Queries {
			entries[i] = queryEntry{Query: src, Limit: req.Limit, Cursor: req.Cursor}
		}
	default:
		for i := range entries {
			if entries[i].Limit == 0 {
				entries[i].Limit = req.Limit
			}
			if entries[i].Cursor == "" {
				entries[i].Cursor = req.Cursor
			}
		}
	}
	ndjson := wantsNDJSON(r)
	if ndjson && !single {
		httpError(w, http.StatusBadRequest, "NDJSON streaming supports single-query requests only")
		return
	}
	debug := r.URL.Query().Get("debug") == "1"

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	// Prepare every entry up front, deduplicating canonically-equal
	// batch entries: N identical entries cost one evaluation (the rest
	// copy the leader's result). Entries only dedupe when their whole
	// result window matches — the same canonical text under different
	// limit or cursor values names a different page, never the leader's
	// rows. Misses on distinct entries still fan out concurrently
	// through the pool.
	type dedupKey struct {
		canon  string
		limit  int
		cursor string
	}
	results := make([]queryResult, len(entries))
	states := make([]*queryState, len(entries)) // nil: failed to parse, or a follower
	leaders := map[dedupKey]int{}               // result window -> leader index
	dups := map[int]int{}                       // follower index -> leader index
	for i, ent := range entries {
		s.queries.Add(1)
		qs, err := s.prepare(ctx, ds, ent, ndjson, debug)
		if err != nil {
			s.failures.Add(1)
			results[i] = queryResult{Error: err.Error(), status: http.StatusBadRequest}
			continue
		}
		key := dedupKey{canon: qs.canon, limit: ent.Limit, cursor: ent.Cursor}
		if li, ok := leaders[key]; ok {
			dups[i] = li
			continue
		}
		leaders[key] = i
		states[i] = qs
		if single && qs.est > 0 {
			// Set before any sink writes, so every delivery mode and every
			// rejection carries it.
			w.Header().Set("X-GTPQ-Cost", strconv.FormatInt(qs.est, 10))
		}
	}

	if ndjson {
		if states[0] == nil {
			httpError(w, results[0].status, results[0].Error)
			return
		}
		s.streamNDJSON(w, states[0])
		return
	}

	var wg sync.WaitGroup
	for i, qs := range states {
		if qs == nil {
			continue
		}
		wg.Add(1)
		go func(i int, qs *queryState) {
			defer wg.Done()
			results[i] = s.answerJSON(qs)
		}(i, qs)
	}
	wg.Wait()
	for follower, leader := range dups {
		r := results[leader]
		if r.Error == "" {
			r.Cached = true // shared the leader's evaluation
		}
		results[follower] = r
	}

	if single {
		writeJSON(w, results[0].status, struct {
			Dataset string `json:"dataset"`
			queryResult
		}{req.Dataset, results[0]})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Dataset string        `json:"dataset"`
		Results []queryResult `json:"results"`
	}{req.Dataset, results})
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	infos, err := s.cat.List()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"datasets": infos})
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

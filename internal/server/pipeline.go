// The /query pipeline. Every query — a single JSON request, each entry
// of a batch, a cursor page, an NDJSON stream — takes the same walk:
//
//	prepare  parse → canonicalize → price → trace
//	open     page token → cache → cost quota → admission → engine
//	sink     answerJSON (whole answer or one drained page) | streamNDJSON
//	observe  status, counters, latency histogram, slowlog
//
// Delivery mode only chooses the sink at the end. The one fork inside
// open is materialization: an unwindowed JSON answer is evaluated whole
// so the result cache can keep it and coalesce concurrent identical
// misses; a paged or NDJSON request consults the cache for hits (a
// cached answer pages for free) but a miss deliberately bypasses it —
// the point of streaming is never holding the full answer, so nothing
// is materialized for Put.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/obs"
	"gtpq/internal/qcache"
	"gtpq/internal/qlang"
)

// errCostExceeded is the estimate-driven admission rejection.
type errCostExceeded struct{ est, quota int64 }

func (e errCostExceeded) Error() string {
	return fmt.Sprintf("estimated cost %d exceeds dataset quota %d", e.est, e.quota)
}

// errCursorExpired marks a page token minted under an older dataset
// generation: result positions are only stable within one generation,
// so the token answers 410 Gone.
var errCursorExpired = errors.New("cursor expired")

// errorStatus maps a request-level error to its HTTP status, counting
// deadline and cancellation aborts on the way.
func (s *Server) errorStatus(err error) int {
	var cost errCostExceeded
	switch {
	case errors.Is(err, errOverloaded), errors.As(err, &cost):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.timeouts.Add(1)
		return http.StatusGatewayTimeout
	case errors.Is(err, errCursorExpired):
		return http.StatusGone
	default:
		return http.StatusBadRequest // parse/validation errors
	}
}

// queryState is one query's trip through the pipeline: what prepare
// learned about the request, then what open, the sink and observe
// record about its outcome.
type queryState struct {
	ctx   context.Context // the request context, carrying tr
	ds    *catalog.Dataset
	q     *core.Query
	canon string     // canonical text: cache key, token binding, dedup
	ent   queryEntry // the entry's result window
	// stream is set for NDJSON and for windowed (limit/cursor) JSON:
	// the result is drained through a cursor, never materialized.
	stream bool
	est    int64 // cost estimate, -1 without a cardinality summary
	// tr is nil unless ?debug=1 or the slowlog is on; untraced queries
	// pay nothing — every span call downstream no-ops on the nil trace.
	tr    *obs.Trace
	start time.Time
	debug bool

	offset int64      // resume position decoded from ent.Cursor
	st     gtea.Stats // Results: the answer size, or the rows drained
	cached bool
	rows   int64 // rows delivered to the client
	err    error
}

// prepare parses and prices one entry and starts its clock and trace.
func (s *Server) prepare(ctx context.Context, ds *catalog.Dataset, ent queryEntry, ndjson, debug bool) (*queryState, error) {
	q, err := qlang.Parse(ent.Query)
	if err != nil {
		return nil, err
	}
	qs := &queryState{
		ds:     ds,
		q:      q,
		canon:  qlang.Format(q),
		ent:    ent,
		stream: ndjson || ent.Limit > 0 || ent.Cursor != "",
		est:    -1,
		start:  time.Now(),
		debug:  debug,
	}
	if debug || s.slow != nil {
		qs.tr = obs.NewTrace("query")
		qs.tr.Root().Attr("dataset", ds.Name)
		qs.tr.Root().Attr("index", ds.Engine.IndexKind())
		ctx = obs.ContextWithTrace(ctx, qs.tr)
	}
	qs.ctx = ctx
	if ds.Card != nil {
		qs.est = ds.Card.EstimateQuery(q)
	}
	if ri := reqInfoFrom(ctx); ri != nil && qs.est > 0 {
		ri.cost.Store(qs.est)
	}
	return qs, nil
}

// gate guards every fresh evaluation: the cost quota first — an
// over-quota query never takes (or waits for) a worker slot — then
// admission. The caller owns the slot on a nil return.
func (s *Server) gate(qs *queryState) error {
	if s.cfg.CostQuota > 0 && qs.est > s.cfg.CostQuota {
		s.costRejected.Add(1)
		s.costRejectedBy.With(qs.ds.Name).Add(1)
		return errCostExceeded{est: qs.est, quota: s.cfg.CostQuota}
	}
	sp := qs.tr.Start("admit")
	defer sp.End()
	return s.admit(qs.ctx)
}

// materialize evaluates qs's whole answer, holding a worker slot only
// for the evaluation.
func (s *Server) materialize(qs *queryState) (*core.Answer, error) {
	if err := s.gate(qs); err != nil {
		return nil, err
	}
	defer s.done()
	ans, st, err := qs.ds.Engine.EvalStatsCtx(qs.ctx, qs.q)
	qs.st = st
	return ans, err
}

// open resolves qs's result stream: the cached answer when the cache
// holds one — hits, and misses coalesced onto an in-flight evaluation,
// never consume a worker slot, and an already-cached answer is served
// whatever its cost — else a fresh evaluation behind gate. A failed
// (e.g. deadline-cancelled) evaluation is never cached; for sharded
// datasets the cached value is the merged answer, so a hit skips the
// whole fan-out. ans is the whole answer when it is resident anyway
// (cache hit, or the materialized evaluation of a non-stream request).
// release must be called exactly once when the sink is done — it closes
// the cursor and frees the worker slot, which a streamed drain holds
// throughout (a slow client occupies a worker; admission control is the
// backpressure).
func (s *Server) open(qs *queryState) (cur gtea.Cursor, ans *core.Answer, release func(), err error) {
	ds := qs.ds
	if qs.ent.Cursor != "" {
		if qs.offset, err = decodePageToken(qs.ent.Cursor, ds, qs.canon); err != nil {
			s.failures.Add(1)
			return nil, nil, nil, err
		}
	}
	switch {
	case s.cache != nil:
		key := qcache.Key{
			Dataset:    ds.Name,
			Generation: ds.Generation,
			Query:      qs.canon,
			Index:      ds.Engine.IndexKind(),
		}
		if qs.stream {
			if ans, qs.cached = s.cache.Get(key); !qs.cached {
				s.streamBypass.Add(1)
			}
		} else {
			var src qcache.Source
			ans, src, err = s.cache.Do(qs.ctx, key, func() (*core.Answer, error) { return s.materialize(qs) })
			qs.cached = src != qcache.Computed
		}
	case !qs.stream:
		ans, err = s.materialize(qs)
	}
	qs.tr.Root().Attr("cached", strconv.FormatBool(qs.cached))
	if err != nil {
		return nil, nil, nil, err
	}
	if ans != nil {
		if qs.cached {
			// No evaluation ran for this caller; report the result size.
			qs.st = gtea.Stats{Results: int64(len(ans.Tuples))}
		}
		return gtea.NewAnswerCursor(ans), ans, func() {}, nil
	}
	if err := s.gate(qs); err != nil {
		return nil, nil, nil, err
	}
	cur, qs.st, err = ds.Engine.EvalCursor(qs.ctx, qs.q)
	if err != nil {
		s.done()
		return nil, nil, nil, err
	}
	return cur, nil, func() { cur.Close(); s.done() }, nil
}

// drain walks qs's result window over cur under the trace's "stream"
// span: skip offset rows, emit up to the page limit (0 = all remaining),
// then peek one row to learn whether a continuation exists. The row
// handed to emit is only valid during the call. qs.rows counts the rows
// emitted, also when the drain ends in an error.
func (s *Server) drain(qs *queryState, cur gtea.Cursor, emit func(row []graph.NodeID) error) (more bool, err error) {
	sp := qs.tr.Start("stream")
	defer func() {
		qs.st.Results = qs.rows
		sp.AttrInt("rows", qs.rows)
		sp.End()
	}()
	for skipped := int64(0); skipped < qs.offset; skipped++ {
		if _, ok := cur.Next(); !ok {
			return false, cur.Err()
		}
	}
	limit := int64(s.pageLimit(qs.ent.Limit))
	for limit <= 0 || qs.rows < limit {
		row, ok := cur.Next()
		if !ok {
			return false, cur.Err()
		}
		if err := emit(row); err != nil {
			return false, err
		}
		qs.rows++
	}
	if _, ok := cur.Next(); ok {
		return true, nil
	}
	return false, cur.Err()
}

// columns names the output columns of a result over out.
func (qs *queryState) columns(out []int) []string {
	cols := make([]string, len(out))
	for i, u := range out {
		cols[i] = qs.q.Nodes[u].Name
	}
	return cols
}

// stats renders qs's evaluation counters for the wire.
func (qs *queryState) stats() *resultStats {
	return &resultStats{
		Input:        qs.st.Input,
		PruneInput:   qs.st.PruneInput,
		EnumInput:    qs.st.EnumInput,
		IndexLookups: qs.st.Index,
		Intermediate: qs.st.Intermediate,
		Results:      qs.st.Results,
		EvalMillis:   float64(time.Since(qs.start).Microseconds()) / 1000,
	}
}

// answerJSON is the JSON sink: qs's whole answer, or one page of it
// with a generation-pinned continuation token when rows remain. Every
// failure maps to the result's Error field.
func (s *Server) answerJSON(qs *queryState) queryResult {
	var res queryResult
	var more bool
	cur, ans, release, err := s.open(qs)
	if err == nil {
		defer release()
		res.Columns = qs.columns(cur.Out())
		if qs.stream {
			// O(page) response memory regardless of result size. Rows from
			// a lazy cursor are copied out of its reused buffer; a buffered
			// cursor's tuples are stable and referenced directly.
			res.Rows = [][]graph.NodeID{} // encode as [] rather than null
			stable := cur.Buffered()
			more, err = s.drain(qs, cur, func(row []graph.NodeID) error {
				if !stable {
					row = append([]graph.NodeID(nil), row...)
				}
				res.Rows = append(res.Rows, row)
				return nil
			})
		} else {
			// The row cap applies per response — cached answers stay whole
			// and are never mutated, only sliced.
			res.Rows = ans.Tuples
			if s.cfg.MaxRows > 0 && len(res.Rows) > s.cfg.MaxRows {
				res.Rows = res.Rows[:s.cfg.MaxRows:s.cfg.MaxRows]
				res.Truncated = true
			}
			if res.Rows == nil {
				res.Rows = [][]graph.NodeID{}
			}
			qs.rows = int64(len(res.Rows))
		}
	}
	if qs.err = err; err != nil {
		// An error response delivers no rows.
		qs.rows, qs.st.Results = 0, 0
		res = queryResult{Error: err.Error()}
	} else {
		res.Cached = qs.cached
		res.Stats = qs.stats()
		if more {
			res.NextCursor = encodePageToken(qs.ds, qs.canon, qs.offset+qs.rows)
		}
	}
	if qs.est > 0 {
		res.CostEstimate = qs.est
	}
	res.status = s.observe(qs)
	if qs.debug {
		res.RequestID = requestIDFrom(qs.ctx)
		res.Trace = qs.tr.Snapshot()
		if err == nil && !qs.cached {
			res.Plan = qs.st.Plan
		}
	}
	return res
}

// observe is the pipeline's one epilogue, run exactly once per prepared
// query whatever its sink and outcome: the row and index counters, the
// latency histogram sample, the slowlog entry when the query crossed
// the threshold — and the HTTP status of qs.err (with it the timeout
// counter), which it returns.
func (s *Server) observe(qs *queryState) (status int) {
	elapsed := time.Since(qs.start)
	status = http.StatusOK
	errMsg := ""
	if qs.err != nil {
		status = s.errorStatus(qs.err)
		errMsg = qs.err.Error()
	}
	s.indexLookups.Add(qs.st.Index)
	s.rows.Add(qs.rows)
	if qs.stream {
		s.rowsStreamed.Add(qs.rows)
	}
	ds := qs.ds
	s.queryLatency.With(ds.Name, ds.Engine.IndexKind()).Observe(elapsed.Seconds())
	qs.tr.Finish()
	if s.slow == nil || elapsed < s.cfg.SlowLogThreshold {
		return status
	}
	e := obs.SlowEntry{
		Time:       time.Now(),
		RequestID:  requestIDFrom(qs.ctx),
		Dataset:    ds.Name,
		Query:      qs.canon,
		Index:      ds.Engine.IndexKind(),
		Generation: ds.Generation,
		Cached:     qs.cached,
		Millis:     float64(elapsed.Microseconds()) / 1000,
		Rows:       qs.st.Results,
		Error:      errMsg,
		Stages:     qs.tr.Stages(),
	}
	if qs.st.Plan != nil {
		e.Plan = qs.st.Plan.String()
	}
	if qs.est > 0 {
		e.CostEstimate = qs.est
	}
	s.slow.Add(e)
	return status
}

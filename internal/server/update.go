package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/delta"
	"gtpq/internal/graph"
)

// POST /update appends one mutation batch to a dataset and serves it
// immediately:
//
//	{"dataset": "d",
//	 "nodes": [{"label": "person", "attrs": {"name": "x", "year": 2026}}],
//	 "edges": [{"from": 12, "to": 9034, "cross": true}]}
//
// New vertices are assigned ids in order after the dataset's current
// maximum; edges may reference them. The response reports the new
// catalog generation (the result cache keys on it, so stale answers
// are structurally impossible) and the pending-delta counters; with
// -compact-after configured, the server folds the delta log into a
// fresh snapshot once pending mutations cross the threshold and the
// response notes it. Updates pass through the same admission-controlled
// worker pool as queries — heavy write traffic sheds with 429 instead
// of stalling reads.

// updateRequest is the POST /update body.
type updateRequest struct {
	Dataset string       `json:"dataset"`
	Nodes   []updateNode `json:"nodes,omitempty"`
	Edges   []updateEdge `json:"edges,omitempty"`
}

type updateNode struct {
	Label string                 `json:"label"`
	Attrs map[string]interface{} `json:"attrs,omitempty"`
}

type updateEdge struct {
	From  int64 `json:"from"`
	To    int64 `json:"to"`
	Cross bool  `json:"cross,omitempty"`
}

// updateResponse reports the applied update.
type updateResponse struct {
	Dataset    string `json:"dataset"`
	Generation uint64 `json:"generation"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	// PendingOps / PendingBatches count everything applied since the
	// last snapshot or compaction, this update included.
	PendingOps     int  `json:"pending_ops"`
	PendingBatches int  `json:"pending_batches"`
	Compacted      bool `json:"compacted"`
	// CompactError reports a failed auto-compaction attempt (the update
	// itself succeeded and is durable).
	CompactError string  `json:"compact_error,omitempty"`
	ApplyMillis  float64 `json:"apply_ms"`
}

// toBatch validates and converts the wire shape.
func (req *updateRequest) toBatch() (delta.Batch, error) {
	var b delta.Batch
	for i, n := range req.Nodes {
		na := delta.NodeAdd{Label: n.Label}
		if len(n.Attrs) > 0 {
			na.Attrs = make(graph.Attrs, len(n.Attrs))
			for k, v := range n.Attrs {
				switch val := v.(type) {
				case string:
					na.Attrs[k] = graph.StrV(val)
				case float64:
					na.Attrs[k] = graph.NumV(val)
				default:
					return b, fmt.Errorf("node %d attr %q: value must be a string or number", i, k)
				}
			}
		}
		b.Nodes = append(b.Nodes, na)
	}
	for i, e := range req.Edges {
		if e.From < 0 || e.To < 0 || e.From > int64(^uint32(0)>>1) || e.To > int64(^uint32(0)>>1) {
			return b, fmt.Errorf("edge %d: endpoints [%d %d] out of range", i, e.From, e.To)
		}
		b.Edges = append(b.Edges, delta.EdgeAdd{
			From: graph.NodeID(e.From), To: graph.NodeID(e.To), Cross: e.Cross,
		})
	}
	if b.Empty() {
		return b, fmt.Errorf("update mutates nothing: set \"nodes\" and/or \"edges\"")
	}
	return b, nil
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.cfg.ReadOnly {
		// A replica's datasets advance only through its tailer; a
		// client write here would fork its log from the primary's.
		httpError(w, http.StatusForbidden, "read-only replica: send updates to the primary")
		return
	}
	var req updateRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid JSON body: %v", err))
		return
	}
	if req.Dataset == "" {
		httpError(w, http.StatusBadRequest, "missing \"dataset\"")
		return
	}
	if ri := reqInfoFrom(r.Context()); ri != nil {
		ri.dataset = req.Dataset
	}
	b, err := req.toBatch()
	if err != nil {
		s.updateFailures.Add(1)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Updates compete with queries for worker slots: building the
	// extended graph and overlay is real work, and shedding writes
	// under overload beats stalling everything.
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	if err := s.admit(ctx); err != nil {
		httpError(w, s.errorStatus(err), err.Error())
		return
	}
	defer s.done()

	start := time.Now()
	ds, err := s.cat.ApplyDelta(req.Dataset, b)
	if err != nil {
		s.updateFailures.Add(1)
		// Internal faults (a failed fsync, a full disk) are the
		// server's problem, not the caller's.
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, catalog.ErrUnknownDataset):
			status = http.StatusNotFound // same class as /query's Acquire
		case errors.Is(err, delta.ErrInvalidBatch):
			status = http.StatusBadRequest
		case errors.Is(err, catalog.ErrClosed):
			status = http.StatusServiceUnavailable // shutting down
		case catalog.IsReloadRace(err):
			// Transient: the dataset hot-reloaded underneath every
			// retry; the client should resubmit, nothing is wrong with
			// the request.
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err.Error())
		return
	}
	s.updates.Add(1)
	resp := updateResponse{
		Dataset:        req.Dataset,
		Generation:     ds.Generation,
		Nodes:          len(b.Nodes),
		Edges:          len(b.Edges),
		PendingOps:     ds.PendingDeltas,
		PendingBatches: ds.DeltaBatches,
	}
	ds.Release()

	if s.cfg.CompactAfter > 0 && resp.PendingOps >= s.cfg.CompactAfter {
		dsc, cerr := s.cat.Compact(req.Dataset)
		if cerr == nil {
			s.compactions.Add(1)
			resp.Compacted = true
			resp.Generation = dsc.Generation
			resp.PendingOps = dsc.PendingDeltas
			resp.PendingBatches = dsc.DeltaBatches
			dsc.Release()
		} else {
			// A failed auto-compaction is not a failed update — the
			// batch is durable and serving, the next update retries the
			// fold — but it must not fail silently: a dataset whose
			// folds keep failing grows its overlay without bound. The
			// response names the error and gtpq_compact_failures_total
			// counts it.
			s.compactFailures.Add(1)
			resp.CompactError = cerr.Error()
		}
	}
	resp.ApplyMillis = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// Streaming result delivery: the page tokens of cursor pagination and
// the chunked NDJSON sink, both fed by the pipeline's drain over the
// engines' pull-based gtea.Cursor instead of materialized answers.
package server

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"gtpq/internal/catalog"
	"gtpq/internal/graph"
)

// pageToken is the decoded form of the opaque continuation cursor. It
// pins everything that must not drift between pages: the dataset, its
// hot-reload generation, the canonical query (hashed), and the index
// kind — plus the resume offset into the canonical row order.
type pageToken struct {
	V          int    `json:"v"`
	Dataset    string `json:"d"`
	Generation uint64 `json:"g"`
	QueryHash  string `json:"q"`
	Index      string `json:"i"`
	Offset     int64  `json:"o"`
}

// queryHash fingerprints a canonical query for cursor pinning.
func queryHash(canon string) string {
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:8])
}

// encodePageToken mints the continuation cursor resuming at offset.
func encodePageToken(ds *catalog.Dataset, canon string, offset int64) string {
	raw, _ := json.Marshal(pageToken{
		V:          1,
		Dataset:    ds.Name,
		Generation: ds.Generation,
		QueryHash:  queryHash(canon),
		Index:      ds.Engine.IndexKind(),
		Offset:     offset,
	})
	return base64.RawURLEncoding.EncodeToString(raw)
}

// decodePageToken validates tok against the acquired dataset and the
// request's query, returning the resume offset. Mismatched bindings are
// client errors (400); a generation mismatch means the dataset mutated
// since the token was minted and maps to 410 Gone.
func decodePageToken(tok string, ds *catalog.Dataset, canon string) (int64, error) {
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return 0, fmt.Errorf("invalid cursor: %v", err)
	}
	var pt pageToken
	if err := json.Unmarshal(raw, &pt); err != nil {
		return 0, fmt.Errorf("invalid cursor: %v", err)
	}
	switch {
	case pt.V != 1:
		return 0, fmt.Errorf("invalid cursor: unsupported version %d", pt.V)
	case pt.Dataset != ds.Name:
		return 0, fmt.Errorf("invalid cursor: issued for dataset %q", pt.Dataset)
	case pt.QueryHash != queryHash(canon):
		return 0, errors.New("invalid cursor: issued for a different query")
	case pt.Offset < 0:
		return 0, errors.New("invalid cursor: negative offset")
	// Generation before index kind: a mutation can swap the engine for
	// an overlay (different kind), and that must read as 410-stale, not
	// as a malformed token.
	case pt.Generation != ds.Generation:
		return 0, fmt.Errorf("%w: dataset generation changed", errCursorExpired)
	case pt.Index != ds.Engine.IndexKind():
		return 0, fmt.Errorf("invalid cursor: issued for index %q", pt.Index)
	}
	return pt.Offset, nil
}

// pageLimit resolves an entry's page size: an explicit limit is capped
// by MaxRows; no limit means a MaxRows-sized page (or, with both
// unset, the whole remaining stream).
func (s *Server) pageLimit(limit int) int {
	if s.cfg.MaxRows > 0 && (limit <= 0 || limit > s.cfg.MaxRows) {
		return s.cfg.MaxRows
	}
	if limit < 0 {
		return 0
	}
	return limit
}

// wantsNDJSON reports whether the request negotiated a streaming
// NDJSON response.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// ndjsonHead is the first NDJSON line: everything the client needs
// before the rows arrive.
type ndjsonHead struct {
	Dataset string   `json:"dataset"`
	Columns []string `json:"columns"`
	Cached  bool     `json:"cached"`
}

// ndjsonRow is one result line.
type ndjsonRow struct {
	Row []graph.NodeID `json:"row"`
}

// ndjsonTrailer is the last NDJSON line: the row count, the
// continuation cursor when the window capped the stream, the evaluation
// stats, and any mid-stream error (pre-stream errors use a plain JSON
// error response instead — the status line is still writable then).
type ndjsonTrailer struct {
	Done       bool         `json:"done"`
	Rows       int64        `json:"rows"`
	NextCursor string       `json:"next_cursor,omitempty"`
	Stats      *resultStats `json:"stats,omitempty"`
	Error      string       `json:"error,omitempty"`
}

// ndjsonFlushRows is how many NDJSON rows are written between explicit
// flushes: enough to amortize syscalls, few enough that rows keep
// arriving while a large result is still being enumerated.
const ndjsonFlushRows = 256

// streamNDJSON is the NDJSON sink: a head record, one object per result
// row, and a trailer with stats — flushed every ndjsonFlushRows rows so
// time-to-first-row is independent of result size. Everything that can
// fail before the first row fails as a plain JSON error with a real
// status code.
func (s *Server) streamNDJSON(w http.ResponseWriter, qs *queryState) {
	cur, _, release, err := s.open(qs)
	if err != nil {
		qs.err = err
		httpError(w, s.observe(qs), err.Error())
		return
	}
	defer release()
	defer s.observe(qs)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)
	head := ndjsonHead{Dataset: qs.ds.Name, Columns: qs.columns(cur.Out()), Cached: qs.cached}
	if qs.err = enc.Encode(head); qs.err != nil {
		return
	}
	rc.Flush() // first byte out before any row is computed

	more, err := s.drain(qs, cur, func(row []graph.NodeID) error {
		if err := enc.Encode(ndjsonRow{Row: row}); err != nil {
			return fmt.Errorf("write: %w", err) // client went away
		}
		if (qs.rows+1)%ndjsonFlushRows == 0 { // qs.rows counts the rows before this one
			rc.Flush()
		}
		return nil
	})
	trailer := ndjsonTrailer{Done: true, Rows: qs.rows, Stats: qs.stats()}
	if more {
		trailer.NextCursor = encodePageToken(qs.ds, qs.canon, qs.offset+qs.rows)
	}
	if qs.err = err; err != nil {
		trailer.Error = err.Error()
	}
	enc.Encode(trailer)
	rc.Flush()
}

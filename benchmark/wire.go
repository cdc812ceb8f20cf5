package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"gtpq/internal/core"
	"gtpq/internal/gtea"
	"gtpq/internal/obs"
)

// rowHash is an order-sensitive FNV-1a style hash over result rows: one
// mixing step per node id and one per row end, so a reordered, split or
// merged row changes it. The reference answer and every response (JSON,
// NDJSON, re-assembled pages) go through the same steps.
type rowHash struct {
	h    uint64
	rows int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	rowEnd    = 0xffffffffff // outside the node id range
)

func newRowHash() rowHash { return rowHash{h: fnvOffset} }

func (r *rowHash) value(v uint64) { r.h = (r.h ^ v) * fnvPrime }
func (r *rowHash) endRow()        { r.value(rowEnd); r.rows++ }

// hashAnswer hashes a materialized answer in its canonical order.
func hashAnswer(a *core.Answer) rowHash {
	rh := newRowHash()
	for _, t := range a.Tuples {
		for _, v := range t {
			rh.value(uint64(v))
		}
		rh.endRow()
	}
	return rh
}

// scanRows feeds the rows of a JSON array of integer arrays
// ("[[1,2],[3,4]]") into rh and returns the number of bytes consumed, up
// to and including the array's closing bracket. It is a byte scanner instead of encoding/json
// so that decoding a 100k-row answer does not compete with the server
// for the two cores.
func scanRows(b []byte, rh *rowHash) (int, error) {
	depth := 0
	var v uint64
	inNum := false
	for i, c := range b {
		switch {
		case c >= '0' && c <= '9':
			v = v*10 + uint64(c-'0')
			inNum = true
		case c == '[':
			depth++
		case c == ',' || c == ']':
			if inNum {
				rh.value(v)
				v, inNum = 0, false
			}
			if c == ']' {
				depth--
				if depth == 1 {
					rh.endRow()
				}
				if depth == 0 {
					return i + 1, nil
				}
			}
		case c == ' ' || c == '\n':
		default:
			return 0, fmt.Errorf("rows: unexpected byte %q at %d", c, i)
		}
	}
	return 0, errors.New("rows: array not closed")
}

// respStats mirrors the server's per-query counters (the paper's #input,
// #index and #intermediate).
type respStats struct {
	Input        int64   `json:"input"`
	PruneInput   int64   `json:"prune_input"`
	EnumInput    int64   `json:"enum_input"`
	IndexLookups int64   `json:"index_lookups"`
	Intermediate int64   `json:"intermediate"`
	Results      int64   `json:"results"`
	EvalMillis   float64 `json:"eval_ms"`
}

// respMeta is everything in a query response except the rows.
type respMeta struct {
	Cached     bool           `json:"cached"`
	NextCursor string         `json:"next_cursor"`
	Error      string         `json:"error"`
	Stats      *respStats     `json:"stats"`
	Plan       *gtea.PlanInfo `json:"plan"`
	Trace      *obs.Span      `json:"trace"`
	// NDJSON trailer only.
	Done bool `json:"done"`
}

var rowsKey = []byte(`"rows":`)

// parseJSONBody hashes the rows of a materialized or paged response into
// rh and decodes the rest of the object.
func parseJSONBody(body []byte, rh *rowHash) (respMeta, error) {
	var meta respMeta
	i := bytes.Index(body, rowsKey)
	if i < 0 {
		// Error responses carry no rows.
		err := json.Unmarshal(body, &meta)
		return meta, err
	}
	start := i + len(rowsKey)
	n, err := scanRows(body[start:], rh)
	if err != nil {
		return meta, err
	}
	rest := make([]byte, 0, len(body)-n+2)
	rest = append(rest, body[:start]...)
	rest = append(rest, "[]"...)
	rest = append(rest, body[start+n:]...)
	err = json.Unmarshal(rest, &meta)
	return meta, err
}

var rowPrefix = []byte(`{"row":`)

// parseNDJSONLine consumes one line of a streamed response: a row line
// is hashed into rh (isRow true); the head and trailer lines are decoded
// into meta.
func parseNDJSONLine(line []byte, rh *rowHash, meta *respMeta) (isRow bool, err error) {
	if !bytes.HasPrefix(line, rowPrefix) {
		return false, json.Unmarshal(line, meta)
	}
	// One row is a depth-1 array: scanRows mixes its values and stops at
	// its bracket without having seen a row end.
	if _, err := scanRows(line[len(rowPrefix):], rh); err != nil {
		return true, err
	}
	rh.endRow()
	return true, nil
}

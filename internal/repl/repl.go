package repl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"gtpq/internal/delta"
)

// Response headers carrying the log state alongside chunk bytes.
const (
	// HeaderBase is the base fingerprint ("nodes:edges:hash16").
	HeaderBase = "X-GTPQ-Repl-Base"
	// HeaderSize is the full log byte length at read time.
	HeaderSize = "X-GTPQ-Repl-Size"
	// HeaderBatches is the pending batch count over the base.
	HeaderBatches = "X-GTPQ-Repl-Batches"
	// HeaderGeneration is the serving catalog generation.
	HeaderGeneration = "X-GTPQ-Repl-Generation"
	// HeaderFile names the base file a /repl/base answer holds.
	HeaderFile = "X-GTPQ-Repl-File"
	// HeaderCRC is the CRC32 (IEEE) of the response body.
	HeaderCRC = "X-GTPQ-Repl-CRC"
	// HeaderStale marks a router response served from a backend that
	// was not in-sync at routing time (Config.StaleOK).
	HeaderStale = "X-GTPQ-Stale"
	// HeaderBackend names the backend a router response came from.
	HeaderBackend = "X-GTPQ-Backend"
)

// ErrChunkCorrupt reports a fetched chunk whose body does not match
// its CRC header — transport damage (truncation, duplication, a
// flipped byte in flight). The tailer counts it and refetches from the
// durable offset; it never applies any frame of a corrupt chunk.
var ErrChunkCorrupt = errors.New("repl: chunk CRC mismatch")

// ErrBaseMismatch reports a log or shipped base whose fingerprint does
// not match what the replica expects. During tailing it signals the
// primary's base changed (a compaction fold) and triggers re-sync;
// after a base install it means the ship itself was inconsistent.
var ErrBaseMismatch = errors.New("repl: base fingerprint mismatch")

// State is the primary's log state for one dataset as carried in
// response headers.
type State struct {
	Base       delta.BaseID
	Size       int64
	Batches    int
	Generation uint64
}

// Chunk is one fetched response body plus its integrity and state
// metadata. CRC is the header value as sent; the tailer verifies it
// against Data so that an injected transport (internal/repl/fault)
// sits between the two. File names the base file a base fetch
// returned (HeaderFile); it is empty for log chunks.
type Chunk struct {
	Data  []byte
	CRC   uint32
	State State
	File  string
}

// FormatBase renders a base fingerprint for HeaderBase.
func FormatBase(id delta.BaseID) string {
	return fmt.Sprintf("%d:%d:%016x", id.Nodes, id.Edges, id.Hash)
}

// ParseBase parses a HeaderBase value.
func ParseBase(s string) (delta.BaseID, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return delta.BaseID{}, fmt.Errorf("repl: malformed base fingerprint %q", s)
	}
	nodes, err1 := strconv.Atoi(parts[0])
	edges, err2 := strconv.Atoi(parts[1])
	hash, err3 := strconv.ParseUint(parts[2], 16, 64)
	if err1 != nil || err2 != nil || err3 != nil || nodes < 0 || edges < 0 {
		return delta.BaseID{}, fmt.Errorf("repl: malformed base fingerprint %q", s)
	}
	return delta.BaseID{Nodes: nodes, Edges: edges, Hash: hash}, nil
}

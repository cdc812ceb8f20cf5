package repl

import (
	"errors"
	"hash/crc32"
	"io/fs"
	"net/http"
	"strconv"
	"time"

	"gtpq/internal/catalog"
)

// Source serves a catalog's delta logs and bases to tailing replicas.
// internal/server mounts it at GET /repl/log and GET /repl/base on
// every process — a replica's local log is byte-identical to its
// primary's, so any replica can itself be tailed.
type Source struct {
	Cat *catalog.Catalog
}

// chunkBytes caps one log chunk: what a tailer asks for, and the most
// a source answers with (clients may ask for less via max=).
const chunkBytes = 1 << 20

// maxWait caps one long-poll.
const maxWait = 25 * time.Second

// sourceStatus maps catalog errors onto HTTP statuses.
func sourceStatus(err error) int {
	switch {
	case errors.Is(err, catalog.ErrUnknownDataset), errors.Is(err, fs.ErrNotExist):
		return http.StatusNotFound
	case errors.Is(err, catalog.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeState stamps st into the response headers.
func writeState(w http.ResponseWriter, st catalog.LogState) {
	h := w.Header()
	h.Set(HeaderBase, FormatBase(st.Base))
	h.Set(HeaderSize, strconv.FormatInt(st.Size, 10))
	h.Set(HeaderBatches, strconv.Itoa(st.Batches))
	h.Set(HeaderGeneration, strconv.FormatUint(st.Generation, 10))
}

// writeBody sends body with its CRC header (the CRC covers exactly the
// bytes written, empty bodies included — a truncated-in-flight body
// can then never masquerade as a shorter valid one).
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set(HeaderCRC, strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(body)
}

// ServeLog answers GET /repl/log?dataset=X&from=N&max=M&wait_ms=W:
// raw delta log bytes from offset N. When nothing past N exists yet it
// long-polls: it answers as soon as a commit appends past N or moves
// the dataset's log state any other way (a compaction fold changes the
// base, a hot reload the generation), and with an empty body once W ms
// (capped at maxWait, 25 s) pass with no change. The state headers report
// the current base and size, which is how tailers notice a fold or
// that they are already caught up.
func (s *Source) ServeLog(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("dataset")
	if name == "" {
		http.Error(w, "missing dataset", http.StatusBadRequest)
		return
	}
	var from int64
	if v := q.Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			http.Error(w, "bad from offset", http.StatusBadRequest)
			return
		}
		from = n
	}
	max := chunkBytes
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "bad max", http.StatusBadRequest)
			return
		}
		max = min(max, n)
	}
	var expired <-chan time.Time // nil: answer now
	if v := q.Get("wait_ms"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad wait_ms", http.StatusBadRequest)
			return
		}
		if wait := min(time.Duration(n)*time.Millisecond, maxWait); wait > 0 {
			timer := time.NewTimer(wait)
			defer timer.Stop()
			expired = timer.C
		}
	}

	var began *catalog.LogState
	for {
		changed := s.Cat.Changed()
		chunk, st, err := s.Cat.ReadLogChunk(name, from, max)
		if err != nil {
			http.Error(w, err.Error(), sourceStatus(err))
			return
		}
		if len(chunk) > 0 || expired == nil || (began != nil && st != *began) {
			writeState(w, st)
			writeBody(w, chunk)
			return
		}
		if began == nil {
			began = &st
		}
		select {
		case <-r.Context().Done():
			return
		case <-expired:
			expired = nil
		case <-changed:
		}
	}
}

// ServeBase answers GET /repl/base?dataset=X[&file=F]: the frozen base
// a replica installs before tailing, as the bytes the catalog stores
// (catalog.ReadBase). Without file= it is the root file — `X.snap`,
// `X.json[.gz]` or a shard directory's manifest.json — and with it one
// file of the shard directory; HeaderFile names the file either way.
// The manifest's SHA-256 hashes are the per-file integrity check, the
// chunk CRC just fails transport damage fast. A compaction can swap the
// directory between the manifest fetch and a file fetch; the SHA-256
// check catches the mix and the replica re-ships the whole base.
func (s *Source) ServeBase(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("dataset")
	if name == "" {
		http.Error(w, "missing dataset", http.StatusBadRequest)
		return
	}
	data, file, st, err := s.Cat.ReadBase(name, q.Get("file"))
	if err != nil {
		http.Error(w, err.Error(), sourceStatus(err))
		return
	}
	writeState(w, st)
	w.Header().Set(HeaderFile, file)
	writeBody(w, data)
}

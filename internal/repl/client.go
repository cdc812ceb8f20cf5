package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Client fetches replication data from a primary. The HTTP
// implementation below is the production transport; the fault package
// wraps any Client to inject transport damage, so the tailer verifies
// chunk integrity itself rather than trusting its Client.
type Client interface {
	// FetchLog returns raw log bytes from offset from (at most max),
	// long-polling up to wait when the primary has nothing new.
	FetchLog(ctx context.Context, dataset string, from int64, max int, wait time.Duration) (Chunk, error)
	// FetchBase returns one file of the frozen base, as the primary
	// stores it: with file empty the root Chunk.File names (a
	// snapshot, a JSON graph or a shard manifest), otherwise the named
	// file of the shard directory.
	FetchBase(ctx context.Context, dataset, file string) (Chunk, error)
	// ListDatasets names the datasets the primary serves.
	ListDatasets(ctx context.Context) ([]string, error)
}

// HTTPClient talks to a gtpq-serve primary.
type HTTPClient struct {
	// BaseURL is the primary's root URL (e.g. "http://10.0.0.1:8080").
	BaseURL string
	// HC is the underlying client (default http.DefaultClient; requests
	// are bounded by their contexts, long-polls included).
	HC *http.Client
}

func (c *HTTPClient) hc() *http.Client {
	if c.HC != nil {
		return c.HC
	}
	return http.DefaultClient
}

// get issues one GET and fails non-200s with the body's first line.
func (c *HTTPClient) get(ctx context.Context, path string, q url.Values) (*http.Response, error) {
	u := c.BaseURL + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("repl: %s: status %d: %s", u, resp.StatusCode, firstLine(msg))
	}
	return resp, nil
}

func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' {
			return string(b[:i])
		}
	}
	return string(b)
}

// fetchChunk GETs one repl endpoint and reads its answer as a Chunk.
func (c *HTTPClient) fetchChunk(ctx context.Context, path string, q url.Values) (Chunk, error) {
	resp, err := c.get(ctx, path, q)
	if err != nil {
		return Chunk{}, err
	}
	return readChunk(resp)
}

// readChunk drains a repl response into a Chunk (headers parsed, body
// read whole; bodies are bounded by chunkBytes at the source). A header
// that is present must parse: the tailer trusts the state it carries.
func readChunk(resp *http.Response) (Chunk, error) {
	defer resp.Body.Close()
	var ch Chunk
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return ch, fmt.Errorf("repl: reading chunk body: %w", err)
	}
	ch.Data = data
	if v := resp.Header.Get(HeaderBase); v != "" {
		if ch.State.Base, err = ParseBase(v); err != nil {
			return ch, err
		}
	}
	crc, err1 := headerUint(resp.Header, HeaderCRC, 32)
	size, err2 := headerUint(resp.Header, HeaderSize, 63)
	batches, err3 := headerUint(resp.Header, HeaderBatches, strconv.IntSize-1)
	gen, err4 := headerUint(resp.Header, HeaderGeneration, 64)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return ch, err
	}
	ch.CRC = uint32(crc)
	ch.State.Size, ch.State.Batches, ch.State.Generation = int64(size), int(batches), gen
	ch.File = resp.Header.Get(HeaderFile)
	return ch, nil
}

// headerUint parses a decimal header of at most bits bits; an absent
// header reads as 0, and a sign or any other garbage is refused.
func headerUint(h http.Header, name string, bits int) (uint64, error) {
	v := h.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, bits)
	if err != nil {
		return 0, fmt.Errorf("repl: malformed %s header %q", name, v)
	}
	return n, nil
}

// FetchLog implements Client.
func (c *HTTPClient) FetchLog(ctx context.Context, dataset string, from int64, max int, wait time.Duration) (Chunk, error) {
	q := url.Values{
		"dataset": {dataset},
		"from":    {strconv.FormatInt(from, 10)},
	}
	if max > 0 {
		q.Set("max", strconv.Itoa(max))
	}
	if wait > 0 {
		q.Set("wait_ms", strconv.Itoa(int(wait.Milliseconds())))
	}
	return c.fetchChunk(ctx, "/repl/log", q)
}

// FetchBase implements Client.
func (c *HTTPClient) FetchBase(ctx context.Context, dataset, file string) (Chunk, error) {
	q := url.Values{"dataset": {dataset}}
	if file != "" {
		q.Set("file", file)
	}
	return c.fetchChunk(ctx, "/repl/base", q)
}

// ListDatasets implements Client via the primary's GET /datasets.
func (c *HTTPClient) ListDatasets(ctx context.Context) ([]string, error) {
	resp, err := c.get(ctx, "/datasets", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Datasets []struct {
			Name string `json:"name"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("repl: parsing dataset list: %w", err)
	}
	names := make([]string, 0, len(body.Datasets))
	for _, d := range body.Datasets {
		names = append(names, d.Name)
	}
	return names, nil
}

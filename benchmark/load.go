package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"gtpq/internal/gtea"
	"gtpq/internal/obs"
)

// readResult is one finished read as the client saw it.
type readResult struct {
	latency time.Duration // request written -> last body byte read
	ttfr    time.Duration // request written -> first result row readable
	rows    int
	ok      bool   // 2xx, complete and the answer hash matched the reference
	shed    bool   // failed with 429: refused by admission control
	detail  string // the failure's description, for the log
	bytes   int64  // response body bytes over all exchanges
	start   time.Time
	qi      int // index of the query in the population
	mode    delivery

	// Traced runs only.
	requestIDs []string // one per HTTP exchange (a paged drain has several)
	cached     bool
	stats      *respStats
	plan       *gtea.PlanInfo
	trees      []*obs.Span // ?debug=1 span tree per exchange (nil for NDJSON)
}

// client is one load-generator connection: its own transport with a
// single keep-alive connection, as one real client process would hold.
type client struct {
	id     int
	url    string
	hc     *http.Client
	traced bool
	sent   int

	body []byte        // response buffer, reused
	br   *bufio.Reader // NDJSON line reader, reused
}

func newClient(id int, url string, traced bool) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{
		id: id, url: url, traced: traced,
		hc: &http.Client{Transport: tr, Timeout: 2 * requestTimeoutMS * time.Millisecond},
		br: bufio.NewReaderSize(nil, 64<<10),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one exchange and returns the response with the clock
// reading taken just before the request was written.
func (c *client) post(path string, body []byte, ndjson bool, requestID string) (*http.Response, time.Time, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, time.Time{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ndjson {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	if requestID != "" {
		req.Header.Set(requestIDHeader, requestID)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	return resp, start, err
}

// readAll reads the body into c.body and reports when its first byte
// arrived.
func (c *client) readAll(r io.Reader) (first time.Time, err error) {
	c.body = c.body[:0]
	for {
		if len(c.body) == cap(c.body) {
			c.body = append(c.body, 0)[:len(c.body)]
		}
		n, rerr := r.Read(c.body[len(c.body):cap(c.body)])
		if n > 0 && first.IsZero() {
			first = time.Now()
		}
		c.body = c.body[:len(c.body)+n]
		if rerr == io.EOF {
			return first, nil
		}
		if rerr != nil {
			return first, rerr
		}
	}
}

// readLine returns the next line without its newline; the slice is valid
// until the next call.
func readLine(br *bufio.Reader, scratch *[]byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		*scratch = append((*scratch)[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = br.ReadSlice('\n')
			*scratch = append(*scratch, line...)
		}
		line = *scratch
	}
	if err != nil && !(err == io.EOF && len(line) > 0) {
		return nil, err
	}
	return bytes.TrimRight(line, "\n"), nil
}

// read issues one read in the given delivery mode, checks the answer
// against q's reference and times it as the client sees it.
func (c *client) read(q *query, mode delivery) readResult {
	c.sent++
	res := readResult{mode: mode}
	rh := newRowHash()
	var first, end time.Time
	fail := func(format string, args ...interface{}) readResult {
		res.detail = fmt.Sprintf(format, args...)
		return res
	}
	path := "/query"
	if c.traced {
		path += "?debug=1"
	}
	body, cursor := q.body, ""
	for page := 0; ; page++ {
		if mode == deliverPaged {
			body = marshalBody(q.text, pageLimit, cursor)
		}
		id := ""
		if c.traced {
			id = fmt.Sprintf("c%d-%d.%d", c.id, c.sent, page)
			res.requestIDs = append(res.requestIDs, id)
		}
		resp, start, err := c.post(path, body, mode == deliverNDJSON, id)
		if page == 0 {
			res.start = start
		}
		if err != nil {
			return fail("%v", err)
		}
		var meta respMeta
		if mode == deliverNDJSON && resp.StatusCode == http.StatusOK {
			meta, first, err = c.readNDJSON(resp.Body, &rh, &res.bytes, first)
		} else {
			var f time.Time
			f, err = c.readAll(resp.Body)
			res.bytes += int64(len(c.body))
			if first.IsZero() {
				first = f
			}
			if err == nil && resp.StatusCode == http.StatusOK {
				meta, err = parseJSONBody(c.body, &rh)
			}
		}
		end = time.Now()
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			res.shed = resp.StatusCode == http.StatusTooManyRequests
			return fail("status %d: %.200s", resp.StatusCode, c.body)
		}
		if err != nil {
			return fail("reading response: %v", err)
		}
		if meta.Error != "" {
			return fail("response error: %s", meta.Error)
		}
		if mode == deliverNDJSON && !meta.Done {
			return fail("NDJSON stream ended without a trailer")
		}
		if page == 0 {
			res.cached, res.stats, res.plan = meta.Cached, meta.Stats, meta.Plan
		}
		if c.traced {
			res.trees = append(res.trees, meta.Trace)
		}
		cursor = meta.NextCursor
		if cursor == "" || mode != deliverPaged {
			break
		}
	}
	res.latency = end.Sub(res.start)
	res.ttfr = first.Sub(res.start)
	res.rows = rh.rows
	if rh != q.ref {
		return fail("%s: got %d rows hash %x, reference %d rows hash %x",
			q.class, rh.rows, rh.h, q.ref.rows, q.ref.h)
	}
	res.ok = true
	return res
}

// readNDJSON consumes a streamed response line by line. first is set
// when the first row line (or, for an empty answer, the trailer) has
// been read.
func (c *client) readNDJSON(r io.Reader, rh *rowHash, nbytes *int64, first time.Time) (respMeta, time.Time, error) {
	var meta respMeta
	c.br.Reset(r)
	for {
		line, err := readLine(c.br, &c.body)
		if err == io.EOF {
			return meta, first, nil
		}
		if err != nil {
			return meta, first, err
		}
		*nbytes += int64(len(line)) + 1
		if len(line) == 0 {
			continue
		}
		isRow, err := parseNDJSONLine(line, rh, &meta)
		if err != nil {
			return meta, first, err
		}
		if first.IsZero() && (isRow || meta.Done) {
			first = time.Now()
		}
	}
}

// runClosedLoop sends seq's requests back to back until deadline: the
// next request leaves only when the previous response has been read and
// checked. It returns every finished read, in order.
func runClosedLoop(c *client, qs []*query, seq sequence, deadline time.Time) []readResult {
	var out []readResult
	for time.Now().Before(deadline) {
		req := seq.next()
		res := c.read(qs[req.qi], req.mode)
		res.qi = req.qi
		out = append(out, res)
	}
	return out
}

// opTiming is one open-loop operation: when it was due, when it was
// actually sent and when it completed, as offsets from the schedule's
// start.
type opTiming struct {
	due, sent, done time.Duration
	err             error
}

// latency is timed from when the operation was due, not from when it was
// sent, so the wait a stalled predecessor imposes is counted.
func (o opTiming) latency() time.Duration { return o.done - o.due }

// lateness is how far behind its schedule the generator sent.
func (o opTiming) lateness() time.Duration { return o.sent - o.due }

// runOpenLoop calls do(i) on a fixed schedule — operation i is due at
// start + i*interval — until stop returns true or the next operation
// would be due after deadline. The schedule never shifts: when do stalls,
// later operations are sent late and their latency still counts from
// their due time.
func runOpenLoop(start time.Time, interval time.Duration, deadline time.Time, do func(i int) error) []opTiming {
	var out []opTiming
	for i := 0; ; i++ {
		due := time.Duration(i) * interval
		if !start.Add(due).Before(deadline) {
			return out
		}
		if wait := time.Until(start.Add(due)); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Since(start)
		err := do(i)
		out = append(out, opTiming{due: due, sent: sent, done: time.Since(start), err: err})
	}
}

// updateResponse is the part of POST /update's answer the harness uses.
type updateResponse struct {
	Generation uint64 `json:"generation"`
	Compacted  bool   `json:"compacted"`
	Error      string `json:"error"`
}

// update posts one mutation batch and waits for the durable ack.
func (c *client) update(body []byte) (updateResponse, error) {
	var ur updateResponse
	resp, _, err := c.post("/update", body, false, "")
	if err != nil {
		return ur, err
	}
	defer resp.Body.Close()
	if _, err := c.readAll(resp.Body); err != nil {
		return ur, err
	}
	if resp.StatusCode != http.StatusOK {
		return ur, fmt.Errorf("update: status %d: %.200s", resp.StatusCode, c.body)
	}
	if err := json.Unmarshal(c.body, &ur); err != nil {
		return ur, err
	}
	if ur.Error != "" {
		return ur, errors.New(ur.Error)
	}
	return ur, nil
}

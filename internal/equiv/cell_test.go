package equiv

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/core"
	"gtpq/internal/delta"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/repl"
	"gtpq/internal/server"
	"gtpq/internal/shard"
	"gtpq/internal/sub"
)

// deliveries is the delivery axis: engine calls, or /query over HTTP
// as one JSON response, JSON pages, one NDJSON stream, or NDJSON pages.
var deliveries = []delivery{
	{name: "Eval"},
	{name: "Collect(EvalCursor)", cursor: true},
	{name: "JSON", http: true},
	{name: "JSON paged", http: true, paged: true},
	{name: "NDJSON", http: true, ndjson: true},
	{name: "NDJSON paged", http: true, ndjson: true, paged: true},
}

type delivery struct {
	name                        string
	cursor, http, ndjson, paged bool
}

// caches is the cache axis: the server's result cache off, on but not
// holding the query, or on and warmed by one JSON request first.
var caches = []string{"off", "cold", "warm"}

// cell is one data cell: a dataset of one shape, backend, layout and
// plan setting, served by a primary catalog behind an HTTP server, and
// optionally followed by a replica and watched by standing queries.
type cell struct {
	w                 *workload
	kind              string
	layout            layout
	noPlan            bool
	rot               int // rotates the deliveries over the stages
	cache             string
	replica, standing bool
	met               *sync.Map

	dir     string
	cat     *catalog.Catalog
	srv     *server.Server
	handler atomic.Pointer[http.Handler] // the live primary, swapped on restart
	url     string
	mem     catalog.Engine // the in-memory engine, checked at stage none
	tailer  *repl.Tailer
	rcat    *catalog.Catalog
	subs    []*tracker

	answers, multiPage int64
}

func (c *cell) run(t *testing.T) {
	c.dir = t.TempDir()
	c.mem = c.layout.build(t, c.dir, c.w.g, c.kind, c.layout.k, c.noPlan)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*c.handler.Load()).ServeHTTP(w, r)
	}))
	defer ts.Close()
	c.url = ts.URL
	c.open(t)
	if c.replica {
		c.follow(t)
	}
	defer func() {
		if c.replica {
			c.tailer.Stop()
			c.rcat.Close()
		}
		c.close()
	}()

	batches := c.w.batches
	pending := 0
	var lastGen uint64
	for si, st := range stages {
		var ds *catalog.Dataset
		var err error
		switch st.do {
		case stepNone:
			ds, err = c.cat.Acquire("ds")
		case stepApply:
			ds, err = c.cat.ApplyDelta("ds", batches[0])
			batches = batches[1:]
			pending++
		case stepRestart:
			c.close()
			c.open(t)
			lastGen = 0
			ds, err = c.cat.Acquire("ds")
		case stepCompact:
			ds, err = c.cat.Compact("ds")
			pending = 0
		}
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		c.checkDataset(t, si, ds, pending, lastGen)
		lastGen = ds.Generation
		c.checkAnswers(t, si, ds)
		ds.Release()
	}
}

// open starts a primary catalog over the directory and an HTTP server
// over it, and subscribes the standing queries.
func (c *cell) open(t *testing.T) {
	cat, err := catalog.Open(c.dir, catalog.Options{Index: c.kind, NoPlan: c.noPlan})
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{}
	if c.cache != "off" {
		cfg.CacheBytes = 8 << 20
	}
	c.cat, c.srv = cat, server.New(cat, cfg)
	src := &repl.Source{Cat: cat}
	mux := http.NewServeMux()
	mux.Handle("/", c.srv.Handler())
	mux.HandleFunc("/repl/log", src.ServeLog)
	mux.HandleFunc("/repl/base", src.ServeBase)
	var h http.Handler = mux
	c.handler.Store(&h)
	if c.standing {
		c.subs = nil
		for _, q := range c.w.queries {
			cl, err := c.srv.Subs().Subscribe("ds", q.q, 0)
			if err != nil {
				t.Fatal(err)
			}
			c.subs = append(c.subs, &tracker{client: cl, rows: map[string][]graph.NodeID{}})
		}
	}
}

func (c *cell) close() {
	for _, tr := range c.subs {
		tr.client.Close()
	}
	c.srv.CloseSubscriptions()
	c.cat.Close()
}

// follow starts a replica catalog tailing the primary over HTTP. It
// builds with the cell's backend, as the primary does: a base shipped
// as a raw JSON graph is indexed by the replica itself.
func (c *cell) follow(t *testing.T) {
	rcat, err := catalog.Open(t.TempDir(), catalog.Options{Index: c.kind, NoPlan: c.noPlan})
	if err != nil {
		t.Fatal(err)
	}
	c.rcat = rcat
	c.tailer = repl.NewTailer(rcat, &repl.HTTPClient{BaseURL: c.url}, repl.TailerConfig{
		Datasets: []string{"ds"},
		PollWait: 2 * time.Millisecond,
		Backoff:  repl.Backoff{Min: time.Millisecond, Max: 10 * time.Millisecond},
	})
	if err := c.tailer.Start(); err != nil {
		t.Fatal(err)
	}
}

// checkDataset checks what the catalog reports about the dataset
// after stage si.
func (c *cell) checkDataset(t *testing.T, si int, ds *catalog.Dataset, pending int, lastGen uint64) {
	t.Helper()
	st, ext := stages[si], c.w.ext[si]
	if ds.Generation <= lastGen {
		t.Fatalf("%s: generation %d did not advance past %d", st.name, ds.Generation, lastGen)
	}
	if ds.DeltaBatches != pending || (pending == 0) != (ds.PendingDeltas == 0) {
		t.Fatalf("%s: %d batches (%d ops) pending, want %d batches", st.name, ds.DeltaBatches, ds.PendingDeltas, pending)
	}
	if ds.Nodes() != ext.N() || ds.Edges() != ext.M() {
		t.Fatalf("%s: %d nodes / %d edges, logical graph has %d / %d", st.name, ds.Nodes(), ds.Edges(), ext.N(), ext.M())
	}
	if ds.Sharded != (c.layout.k > 1) {
		t.Fatalf("%s: Sharded = %t with %d shards", st.name, ds.Sharded, c.layout.k)
	}
	if se, ok := ds.Engine.(*shard.ShardedEngine); ok && se.NumShards() != c.layout.k {
		t.Fatalf("%s: serving %d shards, want %d", st.name, se.NumShards(), c.layout.k)
	}
	if st.do == stepCompact {
		if _, err := os.Stat(filepath.Join(c.dir, "ds"+delta.LogSuffix)); !os.IsNotExist(err) {
			t.Fatalf("delta log still present after compaction: %v", err)
		}
		if n := c.cat.Compactions("ds"); n != 1 {
			t.Fatalf("Compactions = %d after one compaction", n)
		}
	}
}

// checkAnswers checks every query after stage si through the stage's
// delivery, the replica and the standing queries.
func (c *cell) checkAnswers(t *testing.T, si int, ds *catalog.Dataset) {
	t.Helper()
	d := deliveries[(c.rot+si)%len(deliveries)]
	c.meet("stage/" + stages[si].name)
	c.meet("delivery/" + d.name)
	eng := ds.Engine
	if si == 0 && c.mem != nil {
		eng = c.mem
	}
	var before [3]int64
	var want [3]int64 // queries, rows streamed, cache bypasses
	if d.http {
		c.meet("cache/" + c.cache)
		before = c.counters(t)
	}
	for qi, q := range c.w.queries {
		ans := c.w.want[si][qi]
		where := fmt.Sprintf("%s, %s, query %d", stages[si].name, d.name, qi)
		var got [][]graph.NodeID
		switch {
		case d.http:
			requests, limit := int64(1), 0
			if d.paged {
				limit = max(1, (ans.Len()+2)/3)
				requests = int64(max(1, (ans.Len()+limit-1)/limit))
			}
			if c.cache == "warm" {
				c.drain(t, where+", warming", delivery{http: true}, q, 0, false)
				want[0]++
			}
			var n int64
			got, n = c.drain(t, where, d, q, limit, c.cache == "warm")
			if n != requests {
				t.Fatalf("%s: drained in %d requests, want %d", where, n, requests)
			}
			if n > 1 {
				c.multiPage++
			}
			want[0] += n
			if d.paged || d.ndjson {
				want[1] += int64(ans.Len())
				if c.cache == "cold" {
					want[2] += n
				}
			}
		case d.cursor:
			cur, _, err := eng.EvalCursor(context.Background(), q.q)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			a, err := gtea.Collect(cur)
			cur.Close()
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			got = a.Tuples
		default:
			got = evalTuples(t, where, eng, q.q)
		}
		c.compare(t, where, q, ans, got)
	}
	if d.http {
		after := c.counters(t)
		for i, name := range counterNames {
			if after[i]-before[i] != want[i] {
				t.Fatalf("%s, %s: %s moved by %d, want %d", stages[si].name, d.name, name, after[i]-before[i], want[i])
			}
		}
	}
	if c.replica {
		c.meet("replica")
		c.checkReplica(t, si, ds.Engine.IndexKind())
	}
	if c.standing {
		c.meet("standing")
		c.checkStanding(t, si)
	}
}

// meet records that a delivery-axis value met the cell's backend and
// layout.
func (c *cell) meet(value string) {
	c.met.Store(value+" × "+c.kind, true)
	c.met.Store(value+" × "+c.layout.name, true)
}

// compare fails unless rows are the oracle's answer, row for row.
func (c *cell) compare(t *testing.T, where string, q query, want *core.Answer, rows [][]graph.NodeID) {
	t.Helper()
	got := &core.Answer{Out: want.Out, Tuples: rows}
	if !want.Equal(got) {
		t.Fatalf("%s: answer differs from core.EvalNaive\nquery:\n%s\nwant %v\ngot  %v", where, q.text, want, got)
	}
	c.answers++
}

// checkReplica waits for the replica to catch up and checks its
// backend against the primary's and its answers.
func (c *cell) checkReplica(t *testing.T, si int, kind string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.tailer.WaitSync(ctx, "ds"); err != nil {
		t.Fatal(err)
	}
	ds, err := c.rcat.Acquire("ds")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Release()
	if got := ds.Engine.IndexKind(); got != kind {
		t.Fatalf("%s: the replica serves a %s index, the primary %s", stages[si].name, got, kind)
	}
	for qi, q := range c.w.queries {
		where := fmt.Sprintf("%s, replica, query %d", stages[si].name, qi)
		c.compare(t, where, q, c.w.want[si][qi], evalTuples(t, where, ds.Engine, q.q))
	}
}

// evalTuples materializes q on eng, failing t on an error.
func evalTuples(t *testing.T, where string, eng catalog.Engine, q *core.Query) [][]graph.NodeID {
	t.Helper()
	ans, _, err := eng.EvalStatsCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	return ans.Tuples
}

// checkStanding rebuilds each standing query's rows from the events
// pushed since the last stage and checks them.
func (c *cell) checkStanding(t *testing.T, si int) {
	t.Helper()
	reg := c.srv.Subs()
	reg.Sync("ds")
	for qi, tr := range c.subs {
		where := fmt.Sprintf("%s, standing, query %d", stages[si].name, qi)
		n := tr.drain(t, where)
		if stages[si].do == stepCompact && n != 0 {
			t.Fatalf("%s: compaction pushed %d events", where, n)
		}
		c.compare(t, where, c.w.queries[qi], c.w.want[si][qi], tr.sorted())
	}
	if st := reg.Stats(); st.Dropped != 0 {
		t.Fatalf("%s: %d notifications dropped", stages[si].name, st.Dropped)
	}
}

// counterNames are the serving counters each HTTP delivery moves by an
// exact amount, read from /metrics.
var counterNames = [3]string{"gtpq_queries_total", "gtpq_rows_streamed_total", "gtpq_stream_cache_bypass_total"}

func (c *cell) counters(t *testing.T) [3]int64 {
	t.Helper()
	resp, err := http.Get(c.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out [3]int64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, _ := strings.Cut(sc.Text(), " ")
		for i, want := range counterNames {
			if name == want {
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					t.Fatalf("%s: %v", sc.Text(), err)
				}
				out[i] = int64(v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// drain runs q through an HTTP delivery, following next_cursor to the
// end, and returns the rows and the number of requests it took. Every
// response must name the query's columns, report stats.results equal
// to the rows it carried, and report cached as given.
func (c *cell) drain(t *testing.T, where string, d delivery, q query, limit int, cached bool) ([][]graph.NodeID, int64) {
	t.Helper()
	body := map[string]interface{}{"dataset": "ds", "query": q.text, "timeout_ms": 60000}
	if limit > 0 {
		body["limit"] = limit
	}
	var rows [][]graph.NodeID
	for n := int64(1); ; n++ {
		blob, _ := json.Marshal(body)
		req, err := http.NewRequest(http.MethodPost, c.url+"/query", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		if d.ndjson {
			req.Header.Set("Accept", "application/x-ndjson")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var p page
		if d.ndjson {
			p = readNDJSON(t, where, resp)
		} else if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatalf("%s: decoding response: %v", where, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || p.Error != "" {
			t.Fatalf("%s: status %d: %s", where, resp.StatusCode, p.Error)
		}
		if fmt.Sprint(p.Columns) != fmt.Sprint(q.columns) {
			t.Fatalf("%s: columns %v, want %v", where, p.Columns, q.columns)
		}
		if p.Stats.Results != int64(len(p.Rows)) {
			t.Fatalf("%s: stats.results = %d with %d rows delivered", where, p.Stats.Results, len(p.Rows))
		}
		if p.Cached != cached {
			t.Fatalf("%s: cached = %t with the cache %s", where, p.Cached, c.cache)
		}
		rows = append(rows, p.Rows...)
		if p.NextCursor == "" {
			return rows, n
		}
		body["cursor"] = p.NextCursor
	}
}

// page is one /query response, JSON or NDJSON.
type page struct {
	Columns    []string
	Rows       [][]graph.NodeID
	Cached     bool
	NextCursor string `json:"next_cursor"`
	Error      string
	Stats      struct{ Results int64 }
}

// readNDJSON reads one NDJSON response: a head line, one line per row,
// and a trailer whose row count must match the lines.
func readNDJSON(t *testing.T, where string, resp *http.Response) page {
	t.Helper()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil || len(lines) < 2 {
		t.Fatalf("%s: NDJSON body %q: %v", where, lines, err)
	}
	var p page
	var trailer struct {
		Rows       int64
		NextCursor string `json:"next_cursor"`
		Error      string
		Stats      struct{ Results int64 }
	}
	if err := json.Unmarshal([]byte(lines[0]), &p); err != nil {
		t.Fatalf("%s: head: %v", where, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("%s: trailer: %v", where, err)
	}
	for _, line := range lines[1 : len(lines)-1] {
		var row struct{ Row []graph.NodeID }
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("%s: row line: %v", where, err)
		}
		p.Rows = append(p.Rows, row.Row)
	}
	if trailer.Rows != int64(len(p.Rows)) {
		t.Fatalf("%s: trailer counts %d rows, %d lines delivered", where, trailer.Rows, len(p.Rows))
	}
	p.NextCursor, p.Error, p.Stats = trailer.NextCursor, trailer.Error, trailer.Stats
	return p
}

// tracker holds what a standing-query client knows: the rows rebuilt
// from the snapshot and delta events pushed to it.
type tracker struct {
	client *sub.Client
	rows   map[string][]graph.NodeID
	lastID uint64
}

// drain applies every queued event and returns how many there were.
func (tr *tracker) drain(t *testing.T, where string) int {
	t.Helper()
	for n := 0; ; n++ {
		var ev sub.Event
		select {
		case ev = <-tr.client.Events():
		default:
			return n
		}
		if ev.ID < tr.lastID {
			t.Fatalf("%s: event id %d went backwards from %d", where, ev.ID, tr.lastID)
		}
		tr.lastID = ev.ID
		switch ev.Type {
		case "snapshot":
			tr.rows = map[string][]graph.NodeID{}
			for _, row := range ev.Rows {
				tr.rows[fmt.Sprint(row)] = row
			}
		case "delta":
			for _, row := range ev.Removed {
				if _, ok := tr.rows[fmt.Sprint(row)]; !ok {
					t.Fatalf("%s: removed row %v was not present", where, row)
				}
				delete(tr.rows, fmt.Sprint(row))
			}
			for _, row := range ev.Added {
				if _, ok := tr.rows[fmt.Sprint(row)]; ok {
					t.Fatalf("%s: added row %v was already present", where, row)
				}
				tr.rows[fmt.Sprint(row)] = row
			}
		default:
			t.Fatalf("%s: unexpected %q event", where, ev.Type)
		}
	}
}

// sorted returns the tracked rows in canonical order.
func (tr *tracker) sorted() [][]graph.NodeID {
	a := &core.Answer{}
	for _, row := range tr.rows {
		a.Add(row)
	}
	a.Canonicalize()
	return a.Tuples
}

package repl

import (
	"bytes"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"gtpq/internal/catalog"
	"gtpq/internal/delta"
	"gtpq/internal/graph"
	"gtpq/internal/graphio"
)

// stateHeaders lists the headers readChunk parses, in the order the
// fuzz target takes their values.
var stateHeaders = []string{HeaderCRC, HeaderBase, HeaderSize, HeaderBatches, HeaderGeneration, HeaderFile}

// response builds a repl answer carrying the given header values (an
// empty value leaves the header out) and body.
func response(values []string, body []byte) *http.Response {
	h := http.Header{}
	for i, v := range values {
		if v != "" {
			h.Set(stateHeaders[i], v)
		}
	}
	return &http.Response{StatusCode: http.StatusOK, Header: h, Body: io.NopCloser(bytes.NewReader(body))}
}

// A state header that does not parse as a non-negative number is a
// damaged answer: the tailer's overrun check and WaitSync both trust
// that state, so reading it as zero would let a replayed chunk through
// or report a lagging replica as caught up.
func TestReadChunkRefusesMalformedState(t *testing.T) {
	good := []string{"0", "8:8:00000000000000ff", "120", "3", "7", "d.snap"}
	ch, err := readChunk(response(good, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := State{Base: delta.BaseID{Nodes: 8, Edges: 8, Hash: 0xff}, Size: 120, Batches: 3, Generation: 7}
	if ch.State != want || ch.File != "d.snap" {
		t.Fatalf("state = %+v, file %q; want %+v, d.snap", ch.State, ch.File, want)
	}
	for _, bad := range []struct {
		header int
		value  string
	}{
		{0, "-1"}, {0, "4294967296"},
		{1, "8:8"}, {1, "-8:8:00"},
		{2, "-1"}, {2, "12x"}, {2, "9223372036854775808"},
		{3, "-3"}, {3, "three"}, {3, "+3"},
		{4, "-1"}, {4, "1.5"}, {4, " 7"},
	} {
		values := append([]string(nil), good...)
		values[bad.header] = bad.value
		if ch, err := readChunk(response(values, nil)); err == nil {
			t.Errorf("%s: %q accepted as %+v", stateHeaders[bad.header], bad.value, ch.State)
		}
	}
}

// logResponse serves a real /repl/log answer: a flat dataset with one
// applied batch, read from offset 0.
func logResponse(tb testing.TB) *http.Response {
	dir := tb.TempDir()
	g := graph.New(3, 2)
	for _, l := range []string{"a", "b", "c"} {
		g.AddNode(l, nil)
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.Freeze()
	var buf bytes.Buffer
	if err := graphio.Save(&buf, g); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "d.json"), buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	cat, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer cat.Close()
	ds, err := cat.ApplyDelta("d", delta.Batch{Nodes: []delta.NodeAdd{{Label: "a"}}, Edges: []delta.EdgeAdd{{From: 2, To: 3}}})
	if err != nil {
		tb.Fatal(err)
	}
	ds.Release()
	rec := httptest.NewRecorder()
	(&Source{Cat: cat}).ServeLog(rec, httptest.NewRequest(http.MethodGet, "/repl/log?dataset=d&from=0", nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("/repl/log: status %d: %s", rec.Code, rec.Body)
	}
	return rec.Result()
}

// FuzzReadChunk feeds readChunk arbitrary state headers and bodies. It
// must never panic, and a state it accepts must come back unchanged
// through writeState and another readChunk.
func FuzzReadChunk(f *testing.F) {
	live := logResponse(f)
	body, err := io.ReadAll(live.Body)
	if err != nil {
		f.Fatal(err)
	}
	seed := make([]string, len(stateHeaders))
	for i, h := range stateHeaders {
		seed[i] = live.Header.Get(h)
	}
	f.Add(seed[0], seed[1], seed[2], seed[3], seed[4], seed[5], body)
	f.Add(seed[0], seed[1], "-1", seed[3], seed[4], seed[5], body)
	f.Add(seed[0], seed[1], seed[2], "two", seed[4], seed[5], body)
	f.Add(seed[0], "3:2", seed[2], seed[3], seed[4], seed[5], body)
	f.Add("", "", "", "", "", "", []byte(nil))
	f.Fuzz(func(t *testing.T, crc, base, size, batches, gen, file string, body []byte) {
		ch, err := readChunk(response([]string{crc, base, size, batches, gen, file}, body))
		if err != nil {
			return
		}
		if !bytes.Equal(ch.Data, body) {
			t.Fatalf("body read as %q, sent %q", ch.Data, body)
		}
		rec := httptest.NewRecorder()
		writeState(rec, catalog.LogState(ch.State))
		rec.Header().Set(HeaderFile, ch.File)
		writeBody(rec, ch.Data)
		back, err := readChunk(rec.Result())
		if err != nil {
			t.Fatalf("state %+v does not read back: %v", ch.State, err)
		}
		if back.State != ch.State || back.File != ch.File {
			t.Fatalf("state %+v, file %q reads back as %+v, %q", ch.State, ch.File, back.State, back.File)
		}
		if back.CRC != crc32.ChecksumIEEE(body) {
			t.Fatalf("CRC %d reads back as %d", crc32.ChecksumIEEE(body), back.CRC)
		}
	})
}

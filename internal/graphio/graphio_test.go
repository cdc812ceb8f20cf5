package graphio

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"gtpq/internal/arxiv"
	"gtpq/internal/graph"
	"gtpq/internal/xmark"
)

const sample = `{
  "nodes": [
    {"label": "a", "attrs": {"year": 2005, "name": "alice"}},
    {"label": "b"},
    {"label": "c"}
  ],
  "edges": [[0, 1]],
  "refs": [[1, 2]]
}`

func TestLoad(t *testing.T) {
	g, err := Load(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if g.Label(0) != "a" {
		t.Errorf("label = %q", g.Label(0))
	}
	if v, ok := g.Attr(0, "year"); !ok || !v.IsNum || v.Num != 2005 {
		t.Errorf("year attr = %v %v", v, ok)
	}
	if v, ok := g.Attr(0, "name"); !ok || v.Str != "alice" {
		t.Errorf("name attr = %v %v", v, ok)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Error("edges missing")
	}
	if g.EdgeKindOf(1, 2) != graph.CrossEdge {
		t.Error("ref edge not marked cross")
	}
	if g.EdgeKindOf(0, 1) != graph.TreeEdge {
		t.Error("tree edge misclassified")
	}
}

var loadErrors = []string{
	`{"nodes": [], "edges": [[0,1]]}`, // out of range
	`{"nodes": [{"label":"a"}], "refs": [[0,5]]}`,
	`not json`,
	`{"nodes": [{"label":"a","attrs":{"x":[1,2]}}]}`, // bad attr type
}

func TestLoadErrors(t *testing.T) {
	for _, s := range loadErrors {
		if _, err := Load(strings.NewReader(s)); err == nil {
			t.Errorf("Load(%q) should fail", s)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	g1, err := Load(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, g1); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatalf("reload: %v\n%s", err, buf.String())
	}
	if g2.N() != g1.N() || g2.M() != g1.M() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", g1.N(), g1.M(), g2.N(), g2.M())
	}
	for v := 0; v < g1.N(); v++ {
		if g1.Label(graph.NodeID(v)) != g2.Label(graph.NodeID(v)) {
			t.Fatalf("label of %d changed", v)
		}
	}
	if g2.EdgeKindOf(1, 2) != graph.CrossEdge {
		t.Error("ref lost in round trip")
	}
	if v, ok := g2.Attr(0, "year"); !ok || v.Num != 2005 {
		t.Error("attr lost in round trip")
	}
}

// TestLoadGzip checks that gzip-compressed graph JSON is sniffed by
// magic bytes and decompressed transparently.
func TestLoadGzip(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(sample)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("gzip load: N=%d M=%d", g.N(), g.M())
	}
	if g.EdgeKindOf(1, 2) != graph.CrossEdge {
		t.Error("ref edge lost through gzip")
	}
}

var rangeErrors = []struct {
	src  string
	want []string
}{
	{`{"nodes": [{"label":"a"},{"label":"b"}], "edges": [[0,1],[1,7]]}`,
		[]string{"edges[1]", "[1, 7]", "node 7", "2 nodes", "0..1"}},
	{`{"nodes": [{"label":"a"}], "refs": [[-1,0]]}`,
		[]string{"refs[0]", "node -1"}},
}

// TestEdgeRangeErrorIsClear checks the out-of-range diagnostics name
// the list, position, and valid index range.
func TestEdgeRangeErrorIsClear(t *testing.T) {
	for _, c := range rangeErrors {
		_, err := Load(strings.NewReader(c.src))
		if err == nil {
			t.Fatalf("Load(%q) should fail", c.src)
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("error %q does not mention %q", err, w)
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := Load(strings.NewReader(`{"nodes": []}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 {
		t.Errorf("N = %d", g.N())
	}
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
}

// The struct-based encoding/json codec graphio had before its one-pass
// decoder and streaming encoder, kept verbatim as the oracle FuzzLoad
// and TestSaveMatchesEncodingJSON compare against.

type jsonNode struct {
	Label string                 `json:"label"`
	Attrs map[string]interface{} `json:"attrs,omitempty"`
}

type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges [][2]int   `json:"edges,omitempty"`
	Refs  [][2]int   `json:"refs,omitempty"`
}

// oracleLoad reads a JSON graph, gzip-compressed or plain.
func oracleLoad(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("graphio: gzip: %v", err)
		}
		defer zr.Close()
		return oracleDecode(zr)
	}
	return oracleDecode(br)
}

func oracleDecode(r io.Reader) (*graph.Graph, error) {
	var jg jsonGraph
	dec := json.NewDecoder(r)
	if err := dec.Decode(&jg); err != nil {
		return nil, fmt.Errorf("graphio: %v", err)
	}
	g := graph.New(len(jg.Nodes), len(jg.Edges)+len(jg.Refs))
	attrs := graph.Attrs{} // reused: AddNode copies it
	for i, n := range jg.Nodes {
		clear(attrs)
		for k, v := range n.Attrs {
			switch x := v.(type) {
			case float64:
				attrs[k] = graph.NumV(x)
			case string:
				attrs[k] = graph.StrV(x)
			case bool:
				attrs[k] = graph.StrV(fmt.Sprintf("%v", x))
			default:
				return nil, fmt.Errorf("graphio: node %d attr %q has unsupported type %T", i, k, v)
			}
		}
		g.AddNode(n.Label, attrs)
	}
	check := func(list string, i int, e [2]int) error {
		for _, v := range e {
			if v < 0 || v >= len(jg.Nodes) {
				return fmt.Errorf("graphio: %s[%d] = [%d, %d] references node %d, but the graph has only %d nodes (valid indices are 0..%d)",
					list, i, e[0], e[1], v, len(jg.Nodes), len(jg.Nodes)-1)
			}
		}
		return nil
	}
	for i, e := range jg.Edges {
		if err := check("edges", i, e); err != nil {
			return nil, err
		}
		g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	for i, e := range jg.Refs {
		if err := check("refs", i, e); err != nil {
			return nil, err
		}
		g.AddCrossEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	g.Freeze()
	return g, nil
}

// oracleSave writes g as JSON (stable field order for diff-ability).
func oracleSave(w io.Writer, g *graph.Graph) error {
	jg := jsonGraph{Nodes: make([]jsonNode, g.N())}
	for v := 0; v < g.N(); v++ {
		nv := graph.NodeID(v)
		node := jsonNode{Label: g.Label(nv)}
		if attrs := oracleAttrMap(g, nv); len(attrs) > 0 {
			node.Attrs = attrs
		}
		jg.Nodes[v] = node
		for _, wv := range g.Out(nv) {
			pair := [2]int{v, int(wv)}
			if g.EdgeKindOf(nv, wv) == graph.CrossEdge {
				jg.Refs = append(jg.Refs, pair)
			} else {
				jg.Edges = append(jg.Edges, pair)
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jg)
}

// oracleAttrMap returns the explicit attributes of v as JSON values, nil
// when it has none.
func oracleAttrMap(g *graph.Graph, v graph.NodeID) map[string]interface{} {
	keys := g.AttrKeys(v)
	if len(keys) == 0 {
		return nil
	}
	out := make(map[string]interface{}, len(keys))
	for _, k := range keys {
		val, _ := g.Attr(v, k)
		if val.IsNum {
			out[k] = val.Num
		} else {
			out[k] = val.Str
		}
	}
	return out
}

// sameGraph describes the first difference between a and b — node
// count, labels, attributes (numbers bit for bit), out rows and edge
// kinds — or returns "".
func sameGraph(a, b *graph.Graph) string {
	if a.N() != b.N() || a.M() != b.M() {
		return fmt.Sprintf("N/M %d/%d, want %d/%d", a.N(), a.M(), b.N(), b.M())
	}
	for v := graph.NodeID(0); int(v) < a.N(); v++ {
		if a.Label(v) != b.Label(v) {
			return fmt.Sprintf("node %d label %q, want %q", v, a.Label(v), b.Label(v))
		}
		ka, kb := a.AttrKeys(v), b.AttrKeys(v)
		if !slices.Equal(ka, kb) {
			return fmt.Sprintf("node %d attr names %q, want %q", v, ka, kb)
		}
		for _, k := range ka {
			x, _ := a.Attr(v, k)
			y, _ := b.Attr(v, k)
			if x.IsNum != y.IsNum || x.Str != y.Str || math.Float64bits(x.Num) != math.Float64bits(y.Num) {
				return fmt.Sprintf("node %d attr %q = %#v, want %#v", v, k, x, y)
			}
		}
		if !slices.Equal(a.Out(v), b.Out(v)) ||
			!slices.Equal(a.TreeChildren(v, nil), b.TreeChildren(v, nil)) ||
			!slices.Equal(a.CrossTargets(v, nil), b.CrossTargets(v, nil)) {
			return fmt.Sprintf("node %d out row %v (cross %v), want %v (cross %v)",
				v, a.Out(v), a.CrossTargets(v, nil), b.Out(v), b.CrossTargets(v, nil))
		}
	}
	return ""
}

// stricter lists inputs encoding/json decodes and Load rejects, each
// under the rule of the package comment it breaks.
var stricter = []struct {
	src  string
	rule error
}{
	{`{"nodes": [], "nodes": []}`, errDuplicateKey},
	{`{"nodes": [], "Nodes": []}`, errDuplicateKey},
	{`{"x": 1, "x": 2}`, errDuplicateKey},
	{`{"x": {"y": 1, "y": 1}}`, errDuplicateKey},
	{`{"nodes": [{"label": "a", "LABEL": "b"}]}`, errDuplicateKey},
	{`{"nodes": [{"attrs": {"k": 1, "k": "v"}}]}`, errDuplicateKey},
	{`{"nodes": [{"attrs": {"\u00ff": 1, "ÿ": 2}}]}`, errDuplicateKey},
	{`{"nodes": []} {"nodes": []}`, errTrailing},
	{`{"nodes": []}x`, errTrailing},
	{`null null`, errTrailing},
	{`{"nodes": [{}], "edges": [[0]]}`, errPair},
	{`{"nodes": [{}], "edges": [[0, 0, 0]]}`, errPair},
	{`{"nodes": [{}], "edges": [[null, 0]]}`, errPair},
	{`{"nodes": [{}], "edges": [[]]}`, errPair},
	{`{"nodes": [null]}`, errNull},
	{`{"nodes": [{}], "refs": [null]}`, errNull},
	{`{"nodes": [{"label": "a", "attrs": null}]}`, errNull},
}

// TestLoadStricterRules checks each input of stricter: encoding/json
// takes it, and Load refuses it naming the rule.
func TestLoadStricterRules(t *testing.T) {
	for _, c := range stricter {
		if _, err := oracleLoad(strings.NewReader(c.src)); err != nil {
			t.Errorf("%s: encoding/json rejects it too (%v): not a stricter rule", c.src, err)
		}
		if _, err := Load(strings.NewReader(c.src)); !errors.Is(err, c.rule) {
			t.Errorf("Load(%s) = %v, want the %q rule", c.src, err, c.rule)
		}
	}
}

// FuzzLoad runs Load and the encoding/json oracle on the same bytes.
// Load must not panic; what it accepts the oracle accepts as an equal
// graph; what the oracle rejects it rejects; and what only Load rejects
// breaks one of the package comment's four stricter rules.
func FuzzLoad(f *testing.F) {
	save := func(g *graph.Graph) []byte {
		var buf bytes.Buffer
		if err := Save(&buf, g); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	site, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 10, Seed: 7})
	seeds := [][]byte{[]byte(sample), save(site), []byte(hostileJSON)}
	for _, s := range loadErrors {
		seeds = append(seeds, []byte(s))
	}
	for _, c := range rangeErrors {
		seeds = append(seeds, []byte(c.src))
	}
	for _, c := range stricter {
		seeds = append(seeds, []byte(c.src))
	}
	for _, s := range []string{
		`null`,
		` {"Nodes": [{"LABEL": "a", "Attrs": {"x": 1}}], "EDGES": [[0, 0]], "Refs": [[0, 0]]} `,
		`{"nodeſ": [{"label": "a"}]}`,
		`{"nodes": null, "edges": null, "refs": null}`,
		`{"nodes": [{"label": null, "attrs": {}}]}`,
		`{"nodes": [{"label": "a\"\\\/\b\f\n\r\t\u00e9\u2028\ud83d\ude00", "attrs": {"\u0041": "\u0000"}}]}`,
		`{"nodes": [{"label": "\ud800"}, {"label": "\udc00\ud800x"}]}`,
		"{\"nodes\": [{\"label\": \"\xff\xfe\", \"attrs\": {\"\xc0\": \"\xed\xa0\x80\"}}]}",
		"{\"nodes\": [{\"label\": \"a\x01\"}]}",
		`{"nodes": [{}], "edges": [[-0, 0]]}`,
		`{"nodes": [{}], "edges": [[1e400, 0]]}`,
		`{"nodes": [{}], "edges": [[1.0, 0]]}`,
		`{"nodes": [{}], "edges": [[0, 1E0]]}`,
		`{"nodes": [{}], "edges": [[9223372036854775807, 0]]}`,
		`{"nodes": [{}], "edges": [[-9223372036854775808, 0]]}`,
		`{"nodes": [{}], "edges": [[99999999999999999999, 0]]}`,
		`{"nodes": [{}], "edges": [[4294967296, 0]]}`,
		`{"nodes": [{"attrs": {"a": -0, "b": 1e400, "c": 1e-400, "d": 5e-324}}]}`,
		`{"nodes": [{"attrs": {"a": -0.0e+0, "b": 0.5E-3, "c": true, "d": false}}]}`,
		`{"nodes": [{"attrs": {"a": 01}}]}`,
		`{"nodes": [{"attrs": {"a": null}}]}`,
		`{"nodes": [{"attrs": {"a": {}}}]}`,
		`{"nodes": [{"label": 1}]}`,
		`{"nodes": {}}`,
		`[]`,
		`"nodes"`,
		`{"other": [1, -2.5e3, "s", true, false, null, {"a": [{}]}], "nodes": [{"x": {"y": []}}]}`,
		`{"nodes": [], "edges": [], "refs": []}` + " \t\r\n",
		`{"nodes": [{"label": "a"}, {"label": "b"}], "refs": [[1, 0]], "edges": [[0, 1], [0, 1]]}`,
		`{"x": ` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
		`{"x": ` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
		`{"nodes": [{"x": ` + strings.Repeat("{\"a\":", maxDepth-3) + `0` + strings.Repeat("}", maxDepth-3) + `}]}`,
		`{"nodes": [{"x": ` + strings.Repeat("{\"a\":", maxDepth-2) + `0` + strings.Repeat("}", maxDepth-2) + `}]}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		want, oerr := oracleLoad(bytes.NewReader(data))
		switch {
		case err == nil && oerr != nil:
			t.Fatalf("Load accepts what encoding/json rejects: %v", oerr)
		case err == nil:
			if d := sameGraph(got, want); d != "" {
				t.Fatalf("Load builds a different graph: %s", d)
			}
		case oerr == nil:
			named := errors.Is(err, errDuplicateKey) || errors.Is(err, errTrailing) ||
				errors.Is(err, errPair) || errors.Is(err, errNull)
			// The oracle stops reading a gzip stream where the JSON
			// value ends, so it never sees a bad checksum or a
			// malformed second member after it; Load reads the stream
			// to its end.
			gzipTail := len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b &&
				strings.HasPrefix(err.Error(), "graphio: gzip:")
			if !named && !gzipTail {
				t.Fatalf("Load rejects what encoding/json accepts, under none of the stricter rules: %v", err)
			}
		}
	})
}

// hostileJSON exercises the string and number edges of both codecs.
const hostileJSON = `{"nodes":[{"label":"\u003c\u003e\u0026","attrs":{"\u2028":"\u2029","a":1e-7,"b":1e21}},{"label":""}]}` + "\n"

// hostileGraph holds strings and numbers json.Marshal treats specially.
func hostileGraph() *graph.Graph {
	g := graph.New(0, 0)
	strs := []string{"<>&", "\u2028", "\u2029", "\x00\x01\x1f\x7f", "\xff\xfe", "", "\"\\/\b\f\n\r\t", "é😀"}
	nums := []float64{1e-7, 1e-6, 1e20, 1e21, math.Copysign(0, -1), 5e-324, math.MaxFloat64,
		-math.MaxFloat64, 0, 1, -1.5, 123456789, 1.0000000000000002, 9.999999e-7, 1e-10, 1.5e300, 3e-320}
	for i, s := range strs {
		attrs := graph.Attrs{s: graph.StrV(strs[(i+1)%len(strs)])}
		for j, x := range nums {
			attrs[fmt.Sprint("n", j)] = graph.NumV(x)
		}
		g.AddNode(s, attrs)
	}
	for i := range strs {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%len(strs)))
	}
	g.Freeze()
	return g
}

// TestSaveMatchesEncodingJSON checks Save writes exactly the bytes the
// encoding/json encoder did, and that Load reads them back to the
// oracle's graph.
func TestSaveMatchesEncodingJSON(t *testing.T) {
	site, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 80, Seed: 7})
	ax, _ := arxiv.Generate(arxiv.Config{
		Papers: 200, Authors: 100, AuthorsPerPaper: 2.5, CitesPerPaper: 1.8,
		Window: 50, PaperLabels: 20, AuthorLabels: 10, Seed: 11,
	})
	parallel := graph.New(0, 0)
	for _, l := range []string{"a", "b", "c"} {
		parallel.AddNode(l, nil)
	}
	parallel.AddEdge(0, 1)
	parallel.AddCrossEdge(0, 1)
	parallel.AddEdge(0, 1)
	parallel.AddCrossEdge(1, 2)
	parallel.AddCrossEdge(1, 2)
	parallel.AddEdge(2, 0)
	parallel.AddEdge(2, 2)
	parallel.AddEdge(1, 0)
	parallel.Freeze()
	empty := graph.New(0, 0)
	empty.Freeze()
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"xmark", site}, {"arxiv", ax}, {"parallel", parallel}, {"hostile", hostileGraph()}, {"empty", empty}} {
		var got, want bytes.Buffer
		if err := Save(&got, c.g); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := oracleSave(&want, c.g); err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			i := 0
			for i < min(got.Len(), want.Len()) && got.Bytes()[i] == want.Bytes()[i] {
				i++
			}
			t.Fatalf("%s: Save differs from encoding/json at byte %d:\n got %q\nwant %q", c.name, i,
				got.Bytes()[max(0, i-40):min(got.Len(), i+40)], want.Bytes()[max(0, i-40):min(want.Len(), i+40)])
		}
		g, err := Load(&got)
		if err != nil {
			t.Fatalf("%s: reload: %v", c.name, err)
		}
		og, err := oracleLoad(&want)
		if err != nil {
			t.Fatalf("%s: oracle reload: %v", c.name, err)
		}
		if d := sameGraph(g, og); d != "" {
			t.Fatalf("%s: reload differs from encoding/json's: %s", c.name, d)
		}
	}
	var buf bytes.Buffer
	if err := Save(&buf, empty); err != nil || buf.String() != "{\"nodes\":[]}\n" {
		t.Errorf("empty graph saves as %q (%v)", buf.String(), err)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := graph.New(0, 0)
		g.AddNode("a", graph.Attrs{"x": graph.NumV(x)})
		g.Freeze()
		if err := Save(io.Discard, g); err == nil {
			t.Errorf("Save of %v succeeded", x)
		}
		if err := oracleSave(io.Discard, g); err == nil {
			t.Errorf("oracle Save of %v succeeded", x)
		}
	}
}

// benchSite is the XMark site BenchmarkLoad and BenchmarkSave use.
func benchSite(b *testing.B) (*graph.Graph, []byte) {
	g, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 2000, Seed: 7})
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		b.Fatal(err)
	}
	return g, buf.Bytes()
}

func BenchmarkLoad(b *testing.B) {
	_, data := benchSite(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Load(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSave(b *testing.B) {
	g, data := benchSite(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if err := Save(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}

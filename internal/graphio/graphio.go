// Package graphio loads and saves data graphs as JSON so cmd/gtpq can
// query external graphs:
//
//	{
//	  "nodes": [
//	    {"label": "person", "attrs": {"year": 2005, "name": "alice"}},
//	    {"label": "paper"}
//	  ],
//	  "edges": [[1, 0]],
//	  "refs":  [[1, 0]]
//	}
//
// Edge pairs are [from, to] node indices; "refs" lists ID/IDREF (cross)
// edges. Numeric attribute values become numbers, booleans become the
// strings "true" and "false"; null, arrays and objects are not
// attribute values.
//
// Load transparently accepts gzip-compressed input (sniffed by the
// 0x1f 0x8b magic bytes), so `.json.gz` files work everywhere a plain
// `.json` does.
//
// # Grammar
//
// Load reads the whole input into one buffer and decodes it in a single
// pass written for this one schema, with no reflection. It accepts what
// encoding/json would accept when decoding into
//
//	struct {
//	    Nodes []struct {
//	        Label string         `json:"label"`
//	        Attrs map[string]any `json:"attrs"`
//	    } `json:"nodes"`
//	    Edges, Refs [][2]int
//	}
//
// and builds the same graph: keys match their field exactly or under
// Unicode case folding, unknown keys are skipped (their values must
// still be valid JSON, nested at most 10,000 deep), strings are decoded
// with encoding/json's escape and invalid-UTF-8 rules, an edge index is
// a JSON integer that fits an int64 and names a node, and an attribute
// number is a JSON number a float64 holds finitely. A null document,
// "nodes", "edges", "refs" or "label" means the empty value. Four inputs
// that encoding/json decodes are rejected instead:
//
//   - a key repeated within one object, at any level (keys that match
//     the same field count as repeated);
//   - anything but whitespace after the top-level value;
//   - an edge pair that is not exactly two integers;
//   - null in place of a node, an edge pair or an "attrs" object.
//
// Save writes the bytes encoding/json's Encoder writes for that struct,
// trailing newline included, streaming through a bufio.Writer.
package graphio

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"strconv"
	"strings"

	"gtpq/internal/graph"
)

// The stricter rules of the package comment. Every error that breaks one
// wraps its sentinel.
var (
	errDuplicateKey = errors.New("duplicate key")
	errTrailing     = errors.New("data after the top-level value")
	errPair         = errors.New("an edge pair must be exactly two integers")
	errNull         = errors.New("null in place of a node, an edge pair or an attrs object")
)

// maxDepth is encoding/json's nesting limit: the top-level object is at
// depth 1.
const maxDepth = 10000

// Load reads a JSON graph, gzip-compressed or plain.
func Load(r io.Reader) (*graph.Graph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("graphio: %v", err)
	}
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("graphio: gzip: %v", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("graphio: gzip: %v", err)
		}
	}
	d := decoder{data: data, g: graph.New(0, 0), strs: map[string]string{}, attrs: graph.Attrs{}}
	return d.document()
}

// readAll reads r to its end, in one allocation when r knows its size.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	switch s := r.(type) {
	case interface{ Len() int }:
		buf.Grow(s.Len() + bytes.MinRead)
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// decoder is one Load: a cursor over the input and the graph it builds.
type decoder struct {
	data []byte
	pos  int
	g    *graph.Graph
	// strs holds every string decoded so far, so each distinct label,
	// key and value is copied out of data once and nothing the graph
	// keeps aliases data. It is dropped with the decoder.
	strs  map[string]string
	attrs graph.Attrs // the current node's attributes; AddNode copies them
	// edges and refs are the endpoint pairs, flat, range-checked once
	// the node count is known: the keys may come in any order.
	edges, refs []graph.NodeID
}

// document decodes the whole input and returns the frozen graph.
func (d *decoder) document() (*graph.Graph, error) {
	d.ws()
	var err error
	switch d.peek() {
	case 'n':
		err = d.literal("null")
	case '{':
		var seen [3]bool
		var other keySet
		err = d.object(func(key []byte) error {
			f := fieldOf(key, "nodes", "edges", "refs")
			if err := d.once(seen[:], f, &other, key); err != nil {
				return err
			}
			switch f {
			case 0:
				return d.array(true, d.node)
			case 1:
				return d.array(true, func() error { return d.pair("edges", &d.edges) })
			case 2:
				return d.array(true, func() error { return d.pair("refs", &d.refs) })
			}
			return d.skip(1)
		})
	default:
		err = d.syntax("the document is not an object")
	}
	if err != nil {
		return nil, err
	}
	d.ws()
	if d.pos < len(d.data) {
		return nil, d.fail(errTrailing)
	}
	n := d.g.N()
	for _, l := range []struct {
		name  string
		pairs []graph.NodeID
		add   func(u, v graph.NodeID)
	}{{"edges", d.edges, d.g.AddEdge}, {"refs", d.refs, d.g.AddCrossEdge}} {
		for i := 0; i < len(l.pairs); i += 2 {
			u, v := l.pairs[i], l.pairs[i+1]
			for _, x := range [2]graph.NodeID{u, v} {
				if x < 0 || int(x) >= n {
					return nil, fmt.Errorf("graphio: %s[%d] = [%d, %d] references node %d, but the graph has only %d nodes (valid indices are 0..%d)",
						l.name, i/2, u, v, x, n, n-1)
				}
			}
			l.add(u, v)
		}
	}
	d.g.Freeze()
	return d.g, nil
}

// node decodes one element of "nodes" and adds it to the graph.
func (d *decoder) node() error {
	switch d.peek() {
	case 'n':
		return d.fail(errNull)
	case '{':
	default:
		return d.syntax("a node is not an object")
	}
	label := ""
	clear(d.attrs)
	var seen [2]bool
	var other keySet
	err := d.object(func(key []byte) error {
		f := fieldOf(key, "label", "attrs")
		if err := d.once(seen[:], f, &other, key); err != nil {
			return err
		}
		switch f {
		case 0:
			switch d.peek() {
			case 'n':
				return d.literal("null")
			case '"':
				s, err := d.str()
				label = s
				return err
			}
			return d.syntax("a label is not a string")
		case 1:
			return d.nodeAttrs()
		}
		return d.skip(3)
	})
	if err != nil {
		return err
	}
	d.g.AddNode(label, d.attrs)
	return nil
}

// nodeAttrs decodes an "attrs" object into d.attrs.
func (d *decoder) nodeAttrs() error {
	switch d.peek() {
	case 'n':
		return d.fail(errNull)
	case '{':
	default:
		return d.syntax("attrs is not an object")
	}
	return d.object(func(key []byte) error {
		if _, ok := d.attrs[string(key)]; ok {
			return d.fail(fmt.Errorf("%w %q", errDuplicateKey, key))
		}
		var v graph.Value
		switch c := d.peek(); {
		case c == '"':
			s, err := d.str()
			if err != nil {
				return err
			}
			v = graph.StrV(s)
		case c == 't' || c == 'f':
			s := "true"
			if c == 'f' {
				s = "false"
			}
			if err := d.literal(s); err != nil {
				return err
			}
			v = graph.StrV(s) // as fmt.Sprint prints a bool
		case c == '-' || c-'0' <= 9:
			start := d.pos
			if err := d.number(); err != nil {
				return err
			}
			// A JSON number ParseFloat cannot hold is an error, as in
			// encoding/json: ±Inf comes back with ErrRange.
			x, err := strconv.ParseFloat(string(d.data[start:d.pos]), 64)
			if err != nil {
				return fmt.Errorf("graphio: node %d attr %q: number %s out of range", d.g.N(), key, d.data[start:d.pos])
			}
			v = graph.NumV(x)
		case c == 'n' || c == '[' || c == '{':
			// Named as encoding/json's any would hold them.
			t := map[byte]string{'n': "<nil>", '[': "[]interface {}", '{': "map[string]interface {}"}[c]
			return fmt.Errorf("graphio: node %d attr %q has unsupported type %s", d.g.N(), key, t)
		default:
			return d.syntax("invalid attribute value")
		}
		d.attrs[d.intern(key)] = v
		return nil
	})
}

// pair decodes one edge pair of list and appends it to *dst. An index
// beyond the int32 range fails here, as no graph has such a node.
func (d *decoder) pair(list string, dst *[]graph.NodeID) error {
	switch d.peek() {
	case 'n':
		return d.fail(errNull)
	case '[':
	default:
		return d.fail(errPair)
	}
	d.pos++
	var e [2]int64
	for i := range e {
		if d.ws(); i == 1 {
			if d.peek() != ',' {
				return d.fail(errPair)
			}
			d.pos++
			d.ws()
		}
		var err error
		if e[i], err = d.index(); err != nil {
			return err
		}
	}
	if d.ws(); d.peek() != ']' {
		return d.fail(errPair)
	}
	d.pos++
	for _, x := range e {
		if x != int64(int32(x)) {
			return fmt.Errorf("graphio: %s[%d] = [%d, %d] references node %d, which no graph can hold",
				list, len(*dst)/2, e[0], e[1], x)
		}
	}
	*dst = append(*dst, graph.NodeID(e[0]), graph.NodeID(e[1]))
	return nil
}

// index decodes an edge endpoint: a JSON integer that fits an int64.
func (d *decoder) index() (int64, error) {
	b, start := d.data, d.pos
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	first := i
	var x int64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		x = x*10 + int64(b[i]-'0') // 19 digits and more are redone below
	}
	d.pos = i
	switch {
	case i == first:
		return 0, d.fail(errPair)
	case b[first] == '0' && i > first+1:
		return 0, d.syntax("invalid number")
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return 0, fmt.Errorf("graphio: byte %d: %w: a number that is not an integer", start, errPair)
	case i-first > 18:
		v, err := strconv.ParseInt(string(b[start:i]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("graphio: byte %d: %w: %s overflows an int64", start, errPair, b[start:i])
		}
		return v, nil
	case first > start:
		return -x, nil
	}
	return x, nil
}

// number steps over a JSON number, checking its grammar.
func (d *decoder) number() error {
	b, i := d.data, d.pos
	digits := func() bool {
		j := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		d.pos = i
		return d.syntax("invalid number")
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			d.pos = i
			return d.syntax("invalid number")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			return d.syntax("invalid number")
		}
	}
	d.pos = i
	return nil
}

// skip validates and steps over a value no field takes; depth is that
// of the enclosing object or array.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth++; depth > maxDepth {
			return d.syntax("exceeded max depth")
		}
		if c == '[' {
			return d.array(false, func() error { return d.skip(depth) })
		}
		var seen keySet
		return d.object(func(key []byte) error {
			if !seen.add(key) {
				return d.fail(fmt.Errorf("%w %q", errDuplicateKey, key))
			}
			return d.skip(depth)
		})
	case c == '"':
		_, err := d.text()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.number()
}

// object steps over the object at d.pos, calling field for each key with
// the cursor on its value.
func (d *decoder) object(field func(key []byte) error) error {
	d.pos++
	d.ws()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("expected a string key")
		}
		key, err := d.text()
		if err != nil {
			return err
		}
		if d.ws(); d.peek() != ':' {
			return d.syntax("expected ':' after an object key")
		}
		d.pos++
		d.ws()
		if err := field(key); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
			d.ws()
		case '}':
			d.pos++
			return nil
		default:
			return d.syntax("expected ',' or '}' after an object value")
		}
	}
}

// array steps over the array at d.pos (or null, when nullable), calling
// elem with the cursor on each element.
func (d *decoder) array(nullable bool, elem func() error) error {
	switch d.peek() {
	case 'n':
		if nullable {
			return d.literal("null")
		}
	case '[':
		d.pos++
		d.ws()
		if d.peek() == ']' {
			d.pos++
			return nil
		}
		for {
			if err := elem(); err != nil {
				return err
			}
			d.ws()
			switch d.peek() {
			case ',':
				d.pos++
				d.ws()
			case ']':
				d.pos++
				return nil
			default:
				return d.syntax("expected ',' or ']' after an array element")
			}
		}
	}
	return d.syntax("expected an array")
}

// str decodes the string at d.pos and returns the decoder's copy of it.
func (d *decoder) str() (string, error) {
	b, err := d.text()
	return d.intern(b), err
}

// text decodes the string at d.pos. A plain-ASCII string is returned as
// it stands in the buffer, valid until it is interned; one with an
// escape or a non-ASCII byte is handed to json.Unmarshal, which owns the
// escape, surrogate and invalid-UTF-8 rules.
func (d *decoder) text() ([]byte, error) {
	b, start := d.data, d.pos
	plain := true
	i := start + 1
	for ; i < len(b); i++ {
		c := b[i]
		if c == '"' {
			break
		}
		if c < 0x20 {
			d.pos = i
			return nil, d.syntax("control character in a string")
		}
		if c == '\\' || c >= 0x80 {
			plain = false
			if c == '\\' {
				i++
			}
		}
	}
	if i >= len(b) {
		d.pos = len(b)
		return nil, d.syntax("unterminated string")
	}
	d.pos = i + 1
	if plain {
		return b[start+1 : i], nil
	}
	var s string
	if err := json.Unmarshal(b[start:d.pos], &s); err != nil {
		return nil, fmt.Errorf("graphio: byte %d: %v", start, err)
	}
	return []byte(s), nil
}

// intern returns the one copy of b the decoder keeps.
func (d *decoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// literal steps over lit, which must be at d.pos.
func (d *decoder) literal(lit string) error {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return d.syntax("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// once records a key of an object with known fields: field f of seen,
// or, when f is -1, a key kept in other. A key met twice is an error.
func (d *decoder) once(seen []bool, f int, other *keySet, key []byte) error {
	if f >= 0 && !seen[f] {
		seen[f] = true
		return nil
	}
	if f < 0 && other.add(key) {
		return nil
	}
	return d.fail(fmt.Errorf("%w %q", errDuplicateKey, key))
}

// fieldOf returns the index of the field key names, matched exactly or
// under case folding as encoding/json matches struct fields; -1 if none.
func fieldOf(key []byte, fields ...string) int {
	for i, f := range fields {
		if string(key) == f || strings.EqualFold(string(key), f) {
			return i
		}
	}
	return -1
}

// keySet records the keys of one object.
type keySet map[string]struct{}

// add adds k and reports whether it was new.
func (s *keySet) add(k []byte) bool {
	if _, ok := (*s)[string(k)]; ok {
		return false
	}
	if *s == nil {
		*s = keySet{}
	}
	(*s)[string(k)] = struct{}{}
	return true
}

func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, 0 at the end of the input.
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) syntax(what string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("graphio: unexpected end of input: %s", what)
	}
	return fmt.Errorf("graphio: byte %d (%q): %s", d.pos, d.data[d.pos], what)
}

func (d *decoder) fail(rule error) error {
	return fmt.Errorf("graphio: byte %d: %w", d.pos, rule)
}

// Save writes g as JSON (stable field order for diff-ability): the bytes
// json.Encoder writes for the struct of the package comment. Each
// distinct label, attribute name and string value is quoted once by
// json.Marshal. A NaN or infinite attribute is an error, after which w
// may hold part of the document.
func Save(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	quoted := map[string][]byte{}
	quote := func(b []byte, s string) []byte {
		q, ok := quoted[s]
		if !ok {
			q, _ = json.Marshal(s) // a string always marshals
			quoted[s] = q
		}
		return append(b, q...)
	}
	// Each node and each source's edges are appended to the writer's free
	// space and written. A write error sticks in bw and Flush returns it.
	b := append(bw.AvailableBuffer(), `{"nodes":[`...)
	for v := range g.N() {
		nv := graph.NodeID(v)
		if v > 0 {
			b = append(b, ',')
		}
		b = quote(append(b, `{"label":`...), g.Label(nv))
		keys := g.AttrKeys(nv)
		for i, k := range keys {
			if i == 0 {
				b = append(b, `,"attrs":{`...)
			} else {
				b = append(b, ',')
			}
			b = append(quote(b, k), ':')
			val, _ := g.Attr(nv, k)
			if !val.IsNum {
				b = quote(b, val.Str)
				continue
			}
			var err error
			if b, err = appendFloat(b, val.Num); err != nil {
				return fmt.Errorf("graphio: node %d attr %q: %v", v, k, err)
			}
		}
		if len(keys) > 0 {
			b = append(b, '}')
		}
		b = append(b, '}')
		bw.Write(b)
		b = bw.AvailableBuffer()
	}
	b = append(b, ']')
	var dst []graph.NodeID
	for _, s := range []struct {
		key  string
		list func(graph.NodeID, []graph.NodeID) []graph.NodeID
	}{{`,"edges":[`, g.TreeChildren}, {`,"refs":[`, g.CrossTargets}} {
		first := true
		for v := range g.N() {
			dst = s.list(graph.NodeID(v), dst[:0])
			for _, to := range dst {
				if first {
					b, first = append(b, s.key...), false
				} else {
					b = append(b, ',')
				}
				b = append(strconv.AppendInt(append(b, '['), int64(v), 10), ',')
				b = append(strconv.AppendInt(b, int64(to), 10), ']')
			}
			bw.Write(b)
			b = bw.AvailableBuffer()
		}
		if !first {
			b = append(b, ']')
		}
	}
	bw.Write(append(b, "}\n"...))
	return bw.Flush()
}

// appendFloat formats f as encoding/json does: the shortest 'f' form,
// or 'e' below 1e-6 and from 1e21 up with a one-digit exponent left
// unpadded.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("unsupported value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

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
// edges. Numeric attribute values become numbers, everything else
// strings.
//
// Load transparently accepts gzip-compressed input (sniffed by the
// 0x1f 0x8b magic bytes), so `.json.gz` files work everywhere a plain
// `.json` does.
package graphio

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"

	"gtpq/internal/graph"
)

type jsonNode struct {
	Label string                 `json:"label"`
	Attrs map[string]interface{} `json:"attrs,omitempty"`
}

type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges [][2]int   `json:"edges,omitempty"`
	Refs  [][2]int   `json:"refs,omitempty"`
}

// Load reads a JSON graph, gzip-compressed or plain.
func Load(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("graphio: gzip: %v", err)
		}
		defer zr.Close()
		return load(zr)
	}
	return load(br)
}

func load(r io.Reader) (*graph.Graph, error) {
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

// Save writes g as JSON (stable field order for diff-ability).
func Save(w io.Writer, g *graph.Graph) error {
	jg := jsonGraph{Nodes: make([]jsonNode, g.N())}
	for v := 0; v < g.N(); v++ {
		nv := graph.NodeID(v)
		node := jsonNode{Label: g.Label(nv)}
		if attrs := attrMap(g, nv); len(attrs) > 0 {
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

// attrMap returns the explicit attributes of v as JSON values, nil when
// it has none.
func attrMap(g *graph.Graph, v graph.NodeID) map[string]interface{} {
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

package main

import (
	"testing"

	"gtpq/internal/obs"
)

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, StartNs: 100, EndNs: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{StartNs: 110, EndNs: 150}}, 60},
		{"disjoint children add up", []span{{StartNs: 110, EndNs: 120}, {StartNs: 150, EndNs: 170}}, 70},
		// Two shards evaluated in parallel: the overlap counts once.
		{"overlapping children count once", []span{{StartNs: 110, EndNs: 160}, {StartNs: 140, EndNs: 180}}, 30},
		{"nested children count once", []span{{StartNs: 110, EndNs: 190}, {StartNs: 120, EndNs: 130}}, 20},
		{"a child is clipped to its parent", []span{{StartNs: 50, EndNs: 120}, {StartNs: 190, EndNs: 400}}, 70},
		{"a child outside the parent covers nothing", []span{{StartNs: 300, EndNs: 400}}, 100},
		{"children given out of order", []span{{StartNs: 150, EndNs: 170}, {StartNs: 110, EndNs: 155}}, 40},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// A server ?debug=1 tree is re-parented under the handler span with its
// durations kept and its parent links pointing at recorder IDs.
func TestAddTreeKeepsDurationsAndParents(t *testing.T) {
	rec := &recorder{}
	handler := span{Request: "c1-1.0", Layer: "server", Name: "handler", StartNs: 1_000_000, EndNs: 11_000_000}
	handler.ID = rec.add(handler)
	tree := &obs.Span{Name: "query", Millis: 8, Children: []*obs.Span{
		{Name: "admit", StartMs: 0, Millis: 1},
		{Name: "prune_down", StartMs: 1, Millis: 5},
	}}
	rec.addTree(tree, handler, func(name string) string {
		if name == "prune_down" {
			return "gtea"
		}
		return "server"
	})
	if len(rec.spans) != 4 {
		t.Fatalf("%d spans recorded, want 4", len(rec.spans))
	}
	root, admit, prune := rec.spans[1], rec.spans[2], rec.spans[3]
	if root.Parent != handler.ID || admit.Parent != root.ID || prune.Parent != root.ID {
		t.Errorf("parents = %d %d %d, want %d %d %d", root.Parent, admit.Parent, prune.Parent, handler.ID, root.ID, root.ID)
	}
	if root.dur() != 8_000_000 || prune.dur() != 5_000_000 || prune.Layer != "gtea" || prune.Request != "c1-1.0" {
		t.Errorf("root %+v prune %+v", root, prune)
	}
	if root.StartNs < handler.StartNs || root.EndNs > handler.EndNs {
		t.Errorf("root [%d,%d] not inside handler [%d,%d]", root.StartNs, root.EndNs, handler.StartNs, handler.EndNs)
	}
	if got := selfTime(root, []span{admit, prune}); got != 2_000_000 {
		t.Errorf("root self time = %d, want 2ms", got)
	}
}

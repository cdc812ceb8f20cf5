package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"gtpq/internal/obs"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Request (the X-GTPQ-Request-ID the harness sets); Parent is the
// ID of the span that caused this one (0 for a client span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request string `json:"request"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// recorder keeps the spans of a traced run in memory; they are written
// out once, when the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add stores s under a fresh ID and returns the ID.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// addTree re-parents a server ?debug=1 span tree under parent. The tree
// carries only offsets from its own root, and where the root sits inside
// the handler span cannot be seen from outside, so the root is centred
// in it; durations, which are all that self times use, are exact.
func (r *recorder) addTree(root *obs.Span, parent span, layerOf func(name string) string) {
	rootDur := int64(root.Millis * 1e6)
	rootStart := parent.StartNs + (parent.dur()-rootDur)/2
	if rootStart < parent.StartNs {
		rootStart = parent.StartNs
	}
	var walk func(s *obs.Span, parentID int)
	walk = func(s *obs.Span, parentID int) {
		start := rootStart + int64(s.StartMs*1e6)
		d := int64(s.Millis * 1e6)
		if d < 0 {
			d = 0 // span still open when the snapshot was taken
		}
		id := r.add(span{
			Parent: parentID, Request: parent.Request,
			Layer: layerOf(s.Name), Name: s.Name,
			StartNs: start, EndNs: start + d,
		})
		for _, c := range s.Children {
			walk(c, id)
		}
	}
	walk(root, parent.ID)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children (parallel shard evaluations)
// count once, and a child is clipped to its parent.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(parent, children)
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.StartNs, c.EndNs
		if lo < parent.StartNs {
			lo = parent.StartNs
		}
		if hi > parent.EndNs {
			hi = parent.EndNs
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// writeJSONL writes the spans one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

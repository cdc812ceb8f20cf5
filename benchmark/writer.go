package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gtpq/internal/core"
	"gtpq/internal/delta"
	"gtpq/internal/graph"
	"gtpq/internal/qlang"
	"gtpq/internal/sub"
)

// The write stream. Every batch adds one new leaf vertex under two
// existing vertices (1 node + 2 edges). New vertices carry labels no read
// query mentions and have no outgoing edges, so no reachability between
// existing vertices changes: every read query's answer stays what it was
// on the base graph, and reads can be verified against fixed references
// while writes bump the generation, invalidate the cache, grow the
// overlay and trigger compactions underneath them.
//
// A batch is "inside" when its parents carry the standing query's root
// label (the new vertex then matches the standing query and the
// subscription must be re-evaluated) and "outside" when no vertex with
// that label reaches its parents (the skip analysis must prove the
// subscription untouched). A seeded coin picks between them.
const (
	insideLabel  = "probe_in"
	outsideLabel = "probe_out"
)

// anchors are the existing vertices new leaves hang under.
type anchors struct {
	rootLabel string
	inside    []graph.NodeID // carry rootLabel
	outside   []graph.NodeID // not reachable from any rootLabel vertex
}

// pickAnchors finds a root label with at least two inside and two outside
// anchors. prefer is tried first; otherwise seeded random labels are.
func pickAnchors(g *graph.Graph, r *rand.Rand, prefer string) (anchors, error) {
	labels := g.Labels()
	for try := 0; try < 50; try++ {
		label := prefer
		if try > 0 || label == "" {
			label = labels[r.Intn(len(labels))]
		}
		inside := g.ByLabel(label)
		if len(inside) < 2 {
			continue
		}
		reached := make([]bool, g.N())
		stack := append([]graph.NodeID(nil), inside...)
		for _, v := range inside {
			reached[v] = true
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Out(v) {
				if !reached[w] {
					reached[w] = true
					stack = append(stack, w)
				}
			}
		}
		var outside []graph.NodeID
		for v := 0; v < g.N() && len(outside) < 4096; v++ {
			if !reached[v] {
				outside = append(outside, graph.NodeID(v))
			}
		}
		if len(outside) < 2 {
			continue
		}
		if len(inside) > 4096 {
			inside = inside[:4096]
		}
		return anchors{rootLabel: label, inside: append([]graph.NodeID(nil), inside...), outside: outside}, nil
	}
	return anchors{}, fmt.Errorf("no label splits the graph into inside and outside anchors")
}

// standingQuery matches every (rootLabel vertex, inside leaf below it).
func (a anchors) standingQuery() *core.Query {
	q, err := qlang.Parse(fmt.Sprintf(
		"node x label=%s output\nnode y label=%s parent=x edge=ad output", a.rootLabel, insideLabel))
	if err != nil {
		panic(err) // fixed text over a label taken from the graph
	}
	return q
}

// writer produces and sends the write stream.
type writer struct {
	c      *client
	r      *rand.Rand
	anc    anchors
	nextID graph.NodeID

	batches    []delta.Batch // as acknowledged, for the from-scratch check
	insideSent []time.Time   // send time of each acknowledged inside batch
	insideLeaf []graph.NodeID
	// compacted holds the [sent, acknowledged] interval of every update
	// whose ack reported that it folded the delta log.
	compacted [][2]time.Time
}

func newWriter(c *client, seed int64, anc anchors, baseNodes int) *writer {
	return &writer{c: c, r: rand.New(rand.NewSource(seed)), anc: anc, nextID: graph.NodeID(baseNodes)}
}

type wireUpdate struct {
	Dataset string     `json:"dataset"`
	Nodes   []wireNode `json:"nodes"`
	Edges   []wireEdge `json:"edges"`
}
type wireNode struct {
	Label string `json:"label"`
}
type wireEdge struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// send builds the next batch, posts it and waits for the durable ack.
func (w *writer) send(int) error {
	inside := w.r.Intn(2) == 0
	pool, label := w.anc.outside, outsideLabel
	if inside {
		pool, label = w.anc.inside, insideLabel
	}
	i := w.r.Intn(len(pool))
	j := (i + 1 + w.r.Intn(len(pool)-1)) % len(pool)
	leaf := w.nextID
	body, err := json.Marshal(wireUpdate{
		Dataset: datasetName,
		Nodes:   []wireNode{{Label: label}},
		Edges:   []wireEdge{{From: int64(pool[i]), To: int64(leaf)}, {From: int64(pool[j]), To: int64(leaf)}},
	})
	if err != nil {
		return err
	}
	sent := time.Now()
	ur, err := w.c.update(body)
	if err != nil {
		return err
	}
	w.nextID++
	w.batches = append(w.batches, delta.Batch{
		Nodes: []delta.NodeAdd{{Label: label}},
		Edges: []delta.EdgeAdd{{From: pool[i], To: leaf}, {From: pool[j], To: leaf}},
	})
	if inside {
		w.insideSent = append(w.insideSent, sent)
		w.insideLeaf = append(w.insideLeaf, leaf)
	}
	if ur.Compacted {
		w.compacted = append(w.compacted, [2]time.Time{sent, time.Now()})
	}
	return nil
}

// subscriber drains one standing-query stream and records when each
// delta notification arrived and which leaf it announced.
type subscriber struct {
	cl *sub.Client
	wg sync.WaitGroup

	mu     sync.Mutex
	recv   []time.Time
	leaves []graph.NodeID // last column of the first added row
	gaps   int
}

func subscribe(reg *sub.Registry, q *core.Query) (*subscriber, error) {
	cl, err := reg.Subscribe(datasetName, q, 0)
	if err != nil {
		return nil, err
	}
	s := &subscriber{cl: cl}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for ev := range cl.Events() {
			now := time.Now()
			s.mu.Lock()
			switch ev.Type {
			case "delta":
				leaf := graph.NodeID(-1)
				if len(ev.Added) > 0 {
					leaf = ev.Added[0][len(ev.Added[0])-1]
				}
				s.recv = append(s.recv, now)
				s.leaves = append(s.leaves, leaf)
			case "gap":
				s.gaps++
			}
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// close detaches the stream and waits for the drain goroutine.
func (s *subscriber) close() {
	s.cl.Close()
	s.wg.Wait()
}

// notifyLatencies pairs the k-th acknowledged inside batch with the k-th
// delta notification (both are in apply order) and returns send-to-event
// latencies in ms, plus the number of batches whose notification is
// missing or announces the wrong leaf.
func (s *subscriber) notifyLatencies(w *writer) (lat []float64, bad int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bad = s.gaps
	for k, sent := range w.insideSent {
		if k >= len(s.recv) || s.leaves[k] != w.insideLeaf[k] {
			bad++
			continue
		}
		lat = append(lat, ms(s.recv[k].Sub(sent)))
	}
	return lat, bad
}

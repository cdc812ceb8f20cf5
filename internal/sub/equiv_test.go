package sub

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/core"
	"gtpq/internal/delta"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/shard"
	"gtpq/internal/snapshot"
)

var equivLabels = []string{"a", "b", "c", "d"}

func writeFlat(t *testing.T, dir, name, kind string, g *graph.Graph) {
	t.Helper()
	eng, err := gtea.NewWithOptions(g, gtea.Options{Index: kind})
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.SaveFile(filepath.Join(dir, name+".snap"), g, eng.H); err != nil {
		t.Fatal(err)
	}
}

func writeSharded(t *testing.T, dir, name, kind string, g *graph.Graph, shards int) {
	t.Helper()
	plan, err := shard.Partition(g, shards, shard.ModeWCC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.WriteDir(filepath.Join(dir, name), name, g, plan, shard.Options{Index: kind}); err != nil {
		t.Fatal(err)
	}
}

func randomBatch(r *rand.Rand, vertices int) delta.Batch {
	var b delta.Batch
	for i := r.Intn(2); i > 0; i-- {
		b.Nodes = append(b.Nodes, delta.NodeAdd{Label: equivLabels[r.Intn(len(equivLabels))]})
	}
	limit := vertices + len(b.Nodes)
	for i := 1 + r.Intn(4); i > 0; i-- {
		b.Edges = append(b.Edges, delta.EdgeAdd{
			From: graph.NodeID(r.Intn(limit)),
			To:   graph.NodeID(r.Intn(limit)),
		})
	}
	return b
}

// tupleTracker mirrors what an SSE client would hold: the result set
// reconstructed purely from pushed events.
type tupleTracker struct {
	rows map[string][]graph.NodeID
}

func newTracker() *tupleTracker { return &tupleTracker{rows: map[string][]graph.NodeID{}} }

func tupleKey(tu []graph.NodeID) string { return fmt.Sprint(tu) }

func (tr *tupleTracker) apply(t *testing.T, ev Event) {
	t.Helper()
	switch ev.Type {
	case "snapshot":
		tr.rows = map[string][]graph.NodeID{}
		for _, tu := range ev.Rows {
			tr.rows[tupleKey(tu)] = tu
		}
	case "delta":
		for _, tu := range ev.Removed {
			k := tupleKey(tu)
			if _, ok := tr.rows[k]; !ok {
				t.Fatalf("delta removed tuple %v not present", tu)
			}
			delete(tr.rows, k)
		}
		for _, tu := range ev.Added {
			k := tupleKey(tu)
			if _, ok := tr.rows[k]; ok {
				t.Fatalf("delta re-added tuple %v (duplicate notification)", tu)
			}
			tr.rows[k] = tu
		}
	default:
		t.Fatalf("unexpected event type %q (gap under a huge buffer)", ev.Type)
	}
}

func (tr *tupleTracker) sorted() [][]graph.NodeID {
	out := make([][]graph.NodeID, 0, len(tr.rows))
	for _, tu := range tr.rows {
		out = append(out, tu)
	}
	sort.Slice(out, func(i, j int) bool { return core.CompareTuples(out[i], out[j]) < 0 })
	return out
}

func drainEvents(c *Client) []Event {
	var evs []Event
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				return evs
			}
			evs = append(evs, ev)
		default:
			return evs
		}
	}
}

// TestSubEquivalence drives randomized update streams against standing
// queries and checks, at every generation, that the result a client
// reconstructs purely from pushed notifications is byte-identical to a
// full re-evaluation over the same logical graph — across flat,
// overlay (flat + pending deltas) and sharded bases, both reachability
// backends, and a mid-stream compaction boundary.
func TestSubEquivalence(t *testing.T) {
	baseSeed, trials := gen.EquivKnobs(t, 1201, 1)
	type cell struct {
		sharded bool
		kind    string
		seed    int64
	}
	var cells []cell
	for trial := 0; trial < trials; trial++ {
		for _, sharded := range []bool{false, true} {
			for _, kind := range []string{"threehop", "tc"} {
				cells = append(cells, cell{sharded, kind, baseSeed + int64(trial)*31})
			}
		}
	}
	for _, c := range cells {
		shape := "flat"
		if c.sharded {
			shape = "sharded"
		}
		c := c
		t.Run(fmt.Sprintf("%s-%s-seed%d", shape, c.kind, c.seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(c.seed))
			g := gen.Forest(r, 4, 8, 12, equivLabels)
			dir := t.TempDir()
			if c.sharded {
				writeSharded(t, dir, "ds", c.kind, g, 3)
			} else {
				writeFlat(t, dir, "ds", c.kind, g)
			}
			cat, err := catalog.Open(dir, catalog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cat.Close()
			reg := New(cat, Config{Buffer: 4096, Retain: time.Minute})
			defer reg.Close()

			queries := make([]*core.Query, 4)
			for i := range queries {
				queries[i] = gen.Query(r, 2+r.Intn(4), equivLabels, true, true)
			}
			clients := make([]*Client, len(queries))
			trackers := make([]*tupleTracker, len(queries))
			lastID := make([]uint64, len(queries))
			for i, q := range queries {
				cl, err := reg.Subscribe("ds", q, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				clients[i] = cl
				trackers[i] = newTracker()
			}
			reg.Sync("ds")

			var batches []delta.Batch
			check := func(stage string) {
				t.Helper()
				ext, err := delta.Extend(g, batches)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := gtea.NewWithOptions(ext, gtea.Options{Index: c.kind})
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range queries {
					for _, ev := range drainEvents(clients[i]) {
						if ev.ID < lastID[i] {
							t.Fatalf("%s query %d: event id %d went backwards from %d", stage, i, ev.ID, lastID[i])
						}
						lastID[i] = ev.ID
						trackers[i].apply(t, ev)
					}
					want := oracle.Eval(q)
					got := trackers[i].sorted()
					if len(got) != len(want.Tuples) {
						t.Fatalf("%s query %d: %d tuples from notifications, oracle has %d",
							stage, i, len(got), len(want.Tuples))
					}
					for j := range got {
						if core.CompareTuples(got[j], want.Tuples[j]) != 0 {
							t.Fatalf("%s query %d row %d: %v != oracle %v",
								stage, i, j, got[j], want.Tuples[j])
						}
					}
				}
			}
			check("initial")

			vertices := g.N()
			for step := 0; step < 6; step++ {
				if step == 3 {
					// Compaction boundary: live subscriptions hand over to
					// the folded base with no lost or spurious events.
					ds, err := cat.Compact("ds")
					if err != nil {
						t.Fatalf("compact: %v", err)
					}
					ds.Release()
					reg.Sync("ds")
					for i := range clients {
						if evs := drainEvents(clients[i]); len(evs) != 0 {
							t.Fatalf("compaction pushed %d spurious events to query %d", len(evs), i)
						}
					}
				}
				b := randomBatch(r, vertices)
				batches = append(batches, b)
				vertices += len(b.Nodes)
				ds, err := cat.ApplyDelta("ds", b)
				if err != nil {
					t.Fatalf("apply %d: %v", step, err)
				}
				ds.Release()
				reg.Sync("ds")
				check(fmt.Sprintf("after apply %d", step))
			}

			st := reg.Stats()
			if st.Dropped != 0 {
				t.Fatalf("dropped %d notifications under a huge buffer", st.Dropped)
			}
		})
	}
}

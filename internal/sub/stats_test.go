package sub

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/delta"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/shard"
	"gtpq/internal/snapshot"
)

// TestStatsCountSkipsExactly pins the counters the registry reports
// (decide_test.go pins decide in isolation). The fixture is K
// label-disjoint clusters of r<i> → c<i> pairs with one conjunctive AD
// standing query per cluster. A batch that grows one cluster must be
// skipped by the other K-1 subscriptions — a skip is only worth having
// when it is sound and actually taken — and answered by a
// delta-restricted re-evaluation of the touched one: skip rate exactly
// (K-1)/K. A batch that grows every cluster skips nothing. Each touched
// subscription's result grows, so it receives one delta event per batch.
//
// The counts are the same when the dataset is sharded: after its first
// batch a sharded dataset is served, like a flat one, by one engine over
// the extended union graph, so decide analyzes it the same way.
func TestStatsCountSkipsExactly(t *testing.T) {
	const clusters, roots, batches = 4, 8, 40
	label := func(kind string, i int) string { return fmt.Sprintf("%s%d", kind, i) }
	g := graph.New(clusters*roots*2, clusters*roots)
	for i := 0; i < clusters; i++ {
		for j := 0; j < roots; j++ {
			g.AddEdge(g.AddNode(label("r", i), nil), g.AddNode(label("c", i), nil))
		}
	}
	g.Freeze()
	firstRoot := func(i int) graph.NodeID { return graph.NodeID(i * roots * 2) }

	for _, layout := range []struct {
		name  string
		write func(t *testing.T, dir string)
	}{
		{"flat", func(t *testing.T, dir string) { writeFlat(t, dir, "ds", "threehop", g) }},
		{"4-shard", func(t *testing.T, dir string) { writeSharded(t, dir, "ds", "threehop", g, 4) }},
	} {
		t.Run(layout.name, func(t *testing.T) {
			dir := t.TempDir()
			layout.write(t, dir)
			cat, err := catalog.Open(dir, catalog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cat.Close()

			r := New(cat, Config{Buffer: 2 * batches, Retain: time.Minute})
			defer r.Close()
			clients := make([]*Client, clusters)
			for i := range clients {
				q := adQuery(label("r", i), label("c", i))
				q.SetOutput(1) // y too: a new child is a new row
				c, err := r.Subscribe("ds", q, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				clients[i] = c
			}
			r.Sync("ds")
			for i, c := range clients {
				if ev := recvEvent(t, c); ev.Type != "snapshot" || len(ev.Rows) != roots {
					t.Fatalf("cluster %d: initial event %q with %d rows, want snapshot with %d", i, ev.Type, len(ev.Rows), roots)
				}
			}

			vertices := g.N()
			for _, phase := range []struct {
				touched int // each batch hangs a new c<i> off the first root of clusters 0..touched-1
				want    Stats
			}{
				{1, Stats{Skips: (clusters - 1) * batches, RestrictedEvals: batches}},
				{clusters, Stats{RestrictedEvals: clusters * batches}},
			} {
				before := r.Stats()
				for n := 0; n < batches; n++ {
					var b delta.Batch
					for i := 0; i < phase.touched; i++ {
						b.Nodes = append(b.Nodes, delta.NodeAdd{Label: label("c", i)})
						b.Edges = append(b.Edges, delta.EdgeAdd{From: firstRoot(i), To: graph.NodeID(vertices + i)})
					}
					ds, err := cat.ApplyDelta("ds", b)
					if err != nil {
						t.Fatal(err)
					}
					ds.Release()
					vertices += phase.touched
				}
				r.Sync("ds")
				after := r.Stats()
				got := Stats{
					Skips:           after.Skips - before.Skips,
					RestrictedEvals: after.RestrictedEvals - before.RestrictedEvals,
					FullEvals:       after.FullEvals - before.FullEvals,
				}
				if got != phase.want {
					t.Errorf("%d clusters per batch: %d skips / %d restricted / %d full, want %d / %d / %d", phase.touched,
						got.Skips, got.RestrictedEvals, got.FullEvals, phase.want.Skips, phase.want.RestrictedEvals, phase.want.FullEvals)
				}
				for i, c := range clients {
					evs := drainEvents(c)
					for _, ev := range evs {
						if ev.Type != "delta" || len(ev.Added) != 1 || len(ev.Removed) != 0 {
							t.Fatalf("%d clusters per batch: cluster %d got %+v, want a one-row delta", phase.touched, i, ev)
						}
					}
					want := 0
					if i < phase.touched {
						want = batches
					}
					if len(evs) != want {
						t.Errorf("%d clusters per batch: cluster %d received %d delta events, want %d", phase.touched, i, len(evs), want)
					}
				}
			}
		})
	}
}

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

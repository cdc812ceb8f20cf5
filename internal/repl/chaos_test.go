package repl_test

import (
	"sync"
	"testing"
	"time"

	"gtpq/internal/repl"
	"gtpq/internal/repl/fault"
)

// chaosUpdates drives concurrent writes at the primary while the
// replica tails. Writers race, so batch application order is
// nondeterministic and edges may only name the 8 fixture vertices,
// which every interleaving keeps valid; each batch still adds labeled
// nodes, so any skipped or double-applied batch shows up in the
// label-scan equivalence queries.
func chaosUpdates(t *testing.T, url string, rounds, perRound int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var nodes []map[string]interface{}
				for j := 0; j < perRound; j++ {
					nodes = append(nodes, map[string]interface{}{"label": string("abc"[(w+i+j)%3])})
				}
				code, body := postJSON(t, url, "/update", map[string]interface{}{
					"dataset": "d",
					"nodes":   nodes,
					"edges": []map[string]interface{}{
						{"from": (w*rounds + i) % 8, "to": (w*rounds + i + 3) % 8},
					},
				})
				if code != 200 {
					t.Errorf("update: status %d: %s", code, body)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
}

// The headline chaos property: under a mixed fault load on the
// replication transport — drops, stalls, duplicated and truncated
// chunks, bit flips behind a recomputed CRC — with writes arriving
// concurrently, the replica converges to byte-identical answers, and
// whatever faults fired were surfaced through typed-error counters
// (never a silent wrong answer: the equivalence check IS the proof).
func TestChaosEquivalenceUnderMixedFaults(t *testing.T) {
	primary, _ := newPrimary(t, 0)
	inj := fault.New(&repl.HTTPClient{BaseURL: primary.URL}, fault.Config{
		Drop:      0.10,
		Delay:     0.05,
		Duplicate: 0.05,
		Truncate:  0.05,
		Flip:      0.05,
		MaxDelay:  5 * time.Millisecond,
		Seed:      42,
	})
	rep := newReplica(t, inj, repl.TailerConfig{
		Datasets: []string{"d"},
		PollWait: 20 * time.Millisecond,
	})
	chaosUpdates(t, primary.URL, 10, 3)
	rep.waitSync(t)
	assertEquivalent(t, primary.URL, rep.srv.URL)

	// Every injected fault class that fired must be accounted for by a
	// detection-layer counter (drop → fetch errors, on the log or on the
	// bootstrap base fetch; duplicate/truncate → chunk CRC; flip →
	// frame/header CRC, or benign when it landed in a region the next
	// refetch papered over). Nothing may remain as an unexplained apply
	// divergence.
	counts := inj.Counts()
	if counts["drop"] > 0 && rep.errCount("fetch")+rep.errCount("base_fetch") == 0 {
		t.Errorf("%d drops injected but no fetch errors counted", counts["drop"])
	}
	if n := counts["duplicate"] + counts["truncate"]; n > 0 && rep.errCount("chunk_corrupt") == 0 {
		t.Errorf("%d chunk damages injected but no chunk_corrupt counted", n)
	}
	if rep.errCount("apply") != 0 {
		t.Errorf("apply errors counted: a fault leaked past the integrity layers")
	}
	t.Logf("faults injected: %v", counts)
	t.Logf("errors counted: fetch=%d chunk=%d frame=%d overrun=%d reconnects=%d",
		rep.errCount("fetch"), rep.errCount("chunk_corrupt"),
		rep.errCount("frame_corrupt"), rep.errCount("chunk_overrun"),
		rep.counter("gtpq_repl_reconnects_total"))
}

// Kill-and-restart: a dead primary makes the replica back off and
// report not-ready; on revival it re-attaches from the durable offset
// and converges — including batches written while it was cut off.
func TestChaosKillAndRestart(t *testing.T) {
	primary, _ := newPrimary(t, 0)
	inj := fault.New(&repl.HTTPClient{BaseURL: primary.URL}, fault.Config{Seed: 7})
	rep := newReplica(t, inj, repl.TailerConfig{
		Datasets: []string{"d"},
		PollWait: 20 * time.Millisecond,
		MaxLag:   1,
	})
	base := 8
	postUpdate(t, primary.URL, base, 3)
	base += 3
	rep.waitSync(t)

	// Reconnects counted before the kill (a retried fetch while the
	// replica caught up) must not stand in for the kill being noticed.
	before := rep.counter("gtpq_repl_reconnects_total")
	inj.Kill()
	// Writes land while the replica is partitioned.
	for i := 0; i < 3; i++ {
		postUpdate(t, primary.URL, base, 2)
		base += 2
	}
	// The replica must notice: its fetches fail and readiness drops
	// once lag is observed — at minimum, reconnects mount.
	deadline := time.Now().Add(10 * time.Second)
	for inj.Counts()["killed"] == 0 || rep.counter("gtpq_repl_reconnects_total") <= before {
		if time.Now().After(deadline) {
			t.Fatal("killed primary never surfaced as reconnects")
		}
		time.Sleep(time.Millisecond)
	}

	inj.Revive()
	rep.waitSync(t)
	assertEquivalent(t, primary.URL, rep.srv.URL)
	if inj.Counts()["killed"] == 0 {
		t.Fatal("kill window saw no calls")
	}
}

// Compaction handoff under chaos: the primary folds mid-stream while
// faults fire; the replica re-ships the new base and converges.
func TestChaosCompactionHandoff(t *testing.T) {
	primary, pcat := newPrimary(t, 0)
	inj := fault.New(&repl.HTTPClient{BaseURL: primary.URL}, fault.Config{
		Drop:     0.10,
		Truncate: 0.05,
		Seed:     99,
	})
	rep := newReplica(t, inj, repl.TailerConfig{
		Datasets: []string{"d"},
		PollWait: 20 * time.Millisecond,
	})
	base := 8
	postUpdate(t, primary.URL, base, 4)
	base += 4
	rep.waitSync(t)

	ds, err := pcat.Compact("d")
	if err != nil {
		t.Fatal(err)
	}
	ds.Release()
	postUpdate(t, primary.URL, base, 3)

	rep.waitSync(t)
	assertEquivalent(t, primary.URL, rep.srv.URL)
	if n := rep.counter("gtpq_repl_resyncs_total"); n < 2 {
		t.Errorf("resyncs = %d, want >= 2 (bootstrap + fold handoff)", n)
	}
}

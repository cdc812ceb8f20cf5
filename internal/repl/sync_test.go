package repl_test

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gtpq/internal/delta"
	"gtpq/internal/repl"
	"gtpq/internal/repl/fault"
)

// longPolls counts the tailer's long-poll fetches in flight.
type longPolls struct {
	repl.Client
	inflight atomic.Int32
}

func (c *longPolls) FetchLog(ctx context.Context, dataset string, from int64, max int, wait time.Duration) (repl.Chunk, error) {
	if wait > 0 {
		c.inflight.Add(1)
		defer c.inflight.Add(-1)
	}
	return c.Client.FetchLog(ctx, dataset, from, max, wait)
}

// WaitSync on an idle, caught-up replica cancels the long-poll in
// flight instead of sitting it out: with a 10 s PollWait, concurrent
// WaitSync calls all return in a round trip.
func TestWaitSyncDoesNotWaitOutLongPoll(t *testing.T) {
	primary, _ := newPrimary(t, 0)
	postUpdate(t, primary.URL, 8, 3)
	client := &longPolls{Client: &repl.HTTPClient{BaseURL: primary.URL}}
	rep := newReplica(t, client, repl.TailerConfig{
		Datasets: []string{"d"},
		PollWait: 10 * time.Second,
	})
	rep.waitSync(t)
	for i := 0; i < 3; i++ {
		deadline := time.Now().Add(5 * time.Second)
		for client.inflight.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("the caught-up tailer never long-polled")
			}
			time.Sleep(time.Millisecond)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := rep.tailer.WaitSync(ctx, "d"); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if d := time.Since(start); d > time.Second {
			t.Fatalf("WaitSync on a caught-up replica took %v", d)
		}
	}
}

// When WaitSync returns, every write the primary acknowledged before
// the call is on the replica: its log state equals the primary's. The
// same holds when the transport drops and stalls fetches.
func TestWaitSyncSeesPriorWrite(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults fault.Config
	}{
		{"clean", fault.Config{}},
		{"drops_and_delays", fault.Config{Drop: 0.2, Delay: 0.2, MaxDelay: 5 * time.Millisecond, Seed: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			primary, pcat := newPrimary(t, 0)
			inj := fault.New(&repl.HTTPClient{BaseURL: primary.URL}, tc.faults)
			rep := newReplica(t, inj, repl.TailerConfig{
				Datasets: []string{"d"},
				PollWait: 10 * time.Second,
			})
			base := 8
			for i := 0; i < 50; i++ {
				postUpdate(t, primary.URL, base, 1)
				base++
				rep.waitSync(t)
				_, want, err := pcat.ReadLogChunk("d", 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				_, got, err := rep.cat.ReadLogChunk("d", 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got.Base != want.Base || got.Size != want.Size || got.Batches != want.Batches {
					t.Fatalf("write %d: replica at %s size %d batches %d, primary at %s size %d batches %d",
						i, got.Base, got.Size, got.Batches, want.Base, want.Size, want.Batches)
				}
			}
			t.Logf("faults injected: %v", inj.Counts())
		})
	}
}

// A long-poll on a caught-up log answers at the commit that moves the
// log — an applied batch or a compaction fold — not at its deadline,
// and ends with its request or with the catalog, leaving no goroutine
// behind.
func TestServeLogWakesOnCommit(t *testing.T) {
	primary, pcat := newPrimary(t, 0)
	postUpdate(t, primary.URL, 8, 2)
	client := &repl.HTTPClient{
		BaseURL: primary.URL,
		HC:      &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	}
	before := runtime.NumGoroutine()

	type answer struct {
		ch  repl.Chunk
		err error
		at  time.Time
	}
	// park starts a 10 s long-poll from the end of the log and checks
	// that it is still waiting a moment later.
	park := func(ctx context.Context) (<-chan answer, delta.BaseID) {
		t.Helper()
		_, st, err := pcat.ReadLogChunk("d", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		out := make(chan answer, 1)
		go func() {
			ch, err := client.FetchLog(ctx, "d", st.Size, 1<<20, 10*time.Second)
			out <- answer{ch, err, time.Now()}
		}()
		// Give the request time to park; one that reads the state only
		// after the commit answers at once and proves nothing.
		time.Sleep(100 * time.Millisecond)
		select {
		case a := <-out:
			t.Fatalf("long-poll answered with no commit: %d bytes, %v", len(a.ch.Data), a.err)
		default:
		}
		return out, st.Base
	}
	// wake waits for a parked long-poll and checks it answered within
	// 500 ms of since.
	wake := func(what string, out <-chan answer, since time.Time) answer {
		t.Helper()
		select {
		case a := <-out:
			if d := a.at.Sub(since); d > 500*time.Millisecond {
				t.Errorf("%s: long-poll answered %v after it", what, d)
			}
			return a
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: long-poll still waiting 5 s after it", what)
			return answer{}
		}
	}
	bg := context.Background()

	out, _ := park(bg)
	at := time.Now()
	ds, err := pcat.ApplyDelta("d", delta.Batch{Nodes: []delta.NodeAdd{{Label: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	ds.Release()
	if a := wake("ApplyDelta", out, at); a.err != nil || len(a.ch.Data) == 0 {
		t.Errorf("ApplyDelta: long-poll answered %d bytes, %v; want the new frame", len(a.ch.Data), a.err)
	}

	out, oldBase := park(bg)
	at = time.Now()
	if ds, err = pcat.Compact("d"); err != nil {
		t.Fatal(err)
	}
	ds.Release()
	if a := wake("Compact", out, at); a.err != nil || len(a.ch.Data) != 0 || a.ch.State.Base == oldBase {
		t.Errorf("Compact: long-poll answered %d bytes at base %s (was %s), %v; want no bytes at a new base",
			len(a.ch.Data), a.ch.State.Base, oldBase, a.err)
	}

	ctx, cancel := context.WithCancel(bg)
	out, _ = park(ctx)
	at = time.Now()
	cancel()
	if a := wake("cancel", out, at); a.err == nil {
		t.Errorf("cancelled long-poll answered without error")
	}

	out, _ = park(bg)
	at = time.Now()
	if err := pcat.Close(); err != nil {
		t.Fatal(err)
	}
	if a := wake("Close", out, at); a.err == nil {
		t.Errorf("long-poll on a closed catalog answered without error")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the long-polls", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

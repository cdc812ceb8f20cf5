package repl_test

import (
	"bytes"
	"context"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gtpq/internal/delta"
	"gtpq/internal/obs"
	"gtpq/internal/reach"
	"gtpq/internal/repl"
	"gtpq/internal/snapshot"
)

// scriptedClient passes through to a real HTTPClient but lets a test
// damage specific FetchLog responses deterministically — unlike the
// probabilistic injector, each test stages exactly the fault it is
// about.
type scriptedClient struct {
	repl.Client
	mu    sync.Mutex
	calls int
	// damage, when set, may rewrite the nth (1-based) successful
	// FetchLog response.
	damage func(n int, ch repl.Chunk) repl.Chunk
}

func (c *scriptedClient) FetchLog(ctx context.Context, dataset string, from int64, max int, wait time.Duration) (repl.Chunk, error) {
	ch, err := c.Client.FetchLog(ctx, dataset, from, max, wait)
	if err != nil {
		return ch, err
	}
	c.mu.Lock()
	c.calls++
	n := c.calls
	c.mu.Unlock()
	if c.damage != nil {
		ch = c.damage(n, ch)
	}
	return ch, nil
}

// damageOnce builds a scripted client that rewrites only FetchLog
// responses carrying data, the first time one appears.
func damageOnce(inner repl.Client, rewrite func(repl.Chunk) repl.Chunk) *scriptedClient {
	var once sync.Once
	return &scriptedClient{Client: inner, damage: func(_ int, ch repl.Chunk) repl.Chunk {
		if len(ch.Data) == 0 {
			return ch
		}
		damaged := ch
		fired := false
		once.Do(func() { fired = true })
		if fired {
			damaged = rewrite(ch)
		}
		return damaged
	}}
}

// tailOneFault runs the shared scaffold: primary with updates already
// applied, a replica tailing through client, sync, equivalence.
func tailOneFault(t *testing.T, client func(repl.Client) repl.Client) *replica {
	t.Helper()
	primary, _ := newPrimary(t, 0)
	base := 8
	for i := 0; i < 4; i++ {
		postUpdate(t, primary.URL, base, 3)
		base += 3
	}
	inner := &repl.HTTPClient{BaseURL: primary.URL}
	rep := newReplica(t, client(inner), repl.TailerConfig{Datasets: []string{"d"}})
	rep.waitSync(t)
	assertEquivalent(t, primary.URL, rep.srv.URL)
	return rep
}

// A truncated chunk (bytes lost in flight, CRC header intact) must be
// rejected by the chunk CRC, counted, and healed by refetching.
func TestTailerHealsTruncatedChunk(t *testing.T) {
	rep := tailOneFault(t, func(inner repl.Client) repl.Client {
		return damageOnce(inner, func(ch repl.Chunk) repl.Chunk {
			ch.Data = ch.Data[:len(ch.Data)/2]
			return ch
		})
	})
	if n := rep.errCount("chunk_corrupt"); n < 1 {
		t.Errorf("chunk_corrupt = %d, want >= 1", n)
	}
}

// A chunk with a duplicated byte range (retransmit splice) fails the
// chunk CRC before any frame could double-apply.
func TestTailerHealsDuplicatedChunk(t *testing.T) {
	rep := tailOneFault(t, func(inner repl.Client) repl.Client {
		return damageOnce(inner, func(ch repl.Chunk) repl.Chunk {
			ch.Data = append(append([]byte(nil), ch.Data...), ch.Data[len(ch.Data)/2:]...)
			return ch
		})
	})
	if n := rep.errCount("chunk_corrupt"); n < 1 {
		t.Errorf("chunk_corrupt = %d, want >= 1", n)
	}
}

// A flipped bit with the chunk CRC recomputed over the damage (a
// corrupting proxy) passes the chunk check; the delta log's own frame
// CRCs must catch it.
func TestTailerDetectsFrameFlip(t *testing.T) {
	rep := tailOneFault(t, func(inner repl.Client) repl.Client {
		return damageOnce(inner, func(ch repl.Chunk) repl.Chunk {
			flipped := append([]byte(nil), ch.Data...)
			// Flip inside the first frame's payload region, past the
			// 36-byte log header and the 8-byte frame length+CRC prefix.
			flipped[delta.HeaderLen+9] ^= 0x40
			ch.Data = flipped
			ch.CRC = crc32.ChecksumIEEE(flipped)
			return ch
		})
	})
	if n := rep.errCount("frame_corrupt") + rep.errCount("header_corrupt"); n < 1 {
		t.Errorf("frame/header corrupt = %d, want >= 1", n)
	}
}

// A replayed response (duplicate delivery after a reconnect) carries
// valid frames the replica already applied; the advertised-size
// overrun check must refuse it rather than double-apply.
func TestTailerRefusesReplayedChunk(t *testing.T) {
	primary, _ := newPrimary(t, 0)
	base := 8
	for i := 0; i < 4; i++ {
		postUpdate(t, primary.URL, base, 3)
		base += 3
	}
	var (
		mu     sync.Mutex
		seen   repl.Chunk
		stored bool
		played bool
	)
	client := &scriptedClient{
		Client: &repl.HTTPClient{BaseURL: primary.URL},
		damage: func(_ int, ch repl.Chunk) repl.Chunk {
			mu.Lock()
			defer mu.Unlock()
			if !stored && len(ch.Data) > 0 {
				seen, stored = ch, true
				return ch
			}
			// Replay the first data chunk once, on the next fetch after
			// it was applied (the tailer has advanced past its bytes).
			if stored && !played {
				played = true
				return seen
			}
			return ch
		},
	}
	rep := newReplica(t, client, repl.TailerConfig{Datasets: []string{"d"}})
	rep.waitSync(t)

	// The replay fires on a later fetch (the caught-up long-poll after
	// the data chunk was applied); wait for it and for its rejection.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		fired := played
		mu.Unlock()
		if fired && rep.errCount("chunk_overrun") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay fired=%v, chunk_overrun=%d; want fired and counted",
				fired, rep.errCount("chunk_overrun"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The refused replay must not have double-applied: the replica
	// still answers identically after healing.
	rep.waitSync(t)
	assertEquivalent(t, primary.URL, rep.srv.URL)
}

// A torn tail mid-chunk — the fetch races an in-progress append and
// ends mid-frame — applies the complete prefix silently and picks up
// the rest next round. Simulated by truncating mid-frame AND
// recomputing the CRC, exactly what a mid-append read produces.
func TestTailerHealsTornTailMidChunk(t *testing.T) {
	rep := tailOneFault(t, func(inner repl.Client) repl.Client {
		return damageOnce(inner, func(ch repl.Chunk) repl.Chunk {
			if len(ch.Data) <= delta.HeaderLen+12 {
				return ch
			}
			// Cut mid-frame (a few bytes into the first frame after the
			// header) and keep the CRC honest about the short read. The
			// header still advertises the full size, so lag stays > 0 and
			// the next round fetches the remainder.
			torn := ch.Data[:delta.HeaderLen+12]
			ch.Data = append([]byte(nil), torn...)
			ch.CRC = crc32.ChecksumIEEE(ch.Data)
			return ch
		})
	})
	// A torn tail is not a fault: no corruption counter may fire.
	for _, class := range []string{"chunk_corrupt", "frame_corrupt", "chunk_overrun"} {
		if n := rep.errCount(class); n != 0 {
			t.Errorf("%s = %d, want 0 (torn tail is benign)", class, n)
		}
	}
}

// Restart resume: stop the tailer, let the primary advance, start a
// fresh tailer over the same replica directory. It must resume from
// the durable local offset — no re-ship of the base, no double-apply.
func TestTailerResumesFromDurableOffset(t *testing.T) {
	primary, _ := newPrimary(t, 0)
	base := 8
	postUpdate(t, primary.URL, base, 4)
	base += 4
	client := &repl.HTTPClient{BaseURL: primary.URL}
	rep := newReplica(t, client, repl.TailerConfig{Datasets: []string{"d"}})
	rep.waitSync(t)
	rep.tailer.Stop()

	postUpdate(t, primary.URL, base, 5)

	// Second tailer over the SAME catalog: its local log is the durable
	// offset; it must tail the new batches without re-syncing the base.
	tl2 := repl.NewTailer(rep.cat, client, repl.TailerConfig{
		Datasets: []string{"d"},
		PollWait: 50 * time.Millisecond,
		Backoff:  repl.Backoff{Min: time.Millisecond, Max: 20 * time.Millisecond},
	})
	reg2 := obs.NewRegistry()
	tl2.Register(reg2)
	if err := tl2.Start(); err != nil {
		t.Fatal(err)
	}
	defer tl2.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tl2.WaitSync(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if n := reg2.Counter("gtpq_repl_resyncs_total", "").Load(); n != 0 {
		t.Errorf("restart re-shipped the base %d time(s); want resume from offset", n)
	}
	assertEquivalent(t, primary.URL, rep.srv.URL)
}

// Local damage: a replica directory whose base does not load heals by
// one re-ship of the primary's base instead of retrying the broken
// local copy forever, whether its d.snap is garbage, a real version-2
// image cut in half, or one whose version field reads 3.
func TestTailerHealsLocalDamage(t *testing.T) {
	g := buildGraph()
	var img bytes.Buffer
	if err := snapshot.Save(&img, g, reach.NewThreeHop(g)); err != nil {
		t.Fatal(err)
	}
	v3 := bytes.Clone(img.Bytes())
	v3[len(snapshot.Magic)] = 3
	for _, c := range []struct {
		name string
		snap []byte
	}{
		{"garbage", []byte("not a snapshot")},
		{"cut in half", img.Bytes()[:img.Len()/2]},
		{"version 3", v3},
	} {
		t.Run(c.name, func(t *testing.T) {
			primary, _ := newPrimary(t, 0)
			postUpdate(t, primary.URL, 8, 4)
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "d.snap"), c.snap, 0o644); err != nil {
				t.Fatal(err)
			}
			rep := newReplicaIn(t, dir, &repl.HTTPClient{BaseURL: primary.URL},
				repl.TailerConfig{Datasets: []string{"d"}})
			rep.waitSync(t)
			assertEquivalent(t, primary.URL, rep.srv.URL)
			if n := rep.counter("gtpq_repl_resyncs_total"); n != 1 {
				t.Fatalf("%d re-syncs, want 1", n)
			}
			if n := rep.errCount("local"); n < 1 {
				t.Fatalf("local errors = %d, want the damage counted", n)
			}
		})
	}
}

// Compaction handoff: the primary folds its log into a new base; the
// replica must detect the changed fingerprint, re-ship the base, and
// then resume incremental tailing (replaying exactly from the
// compaction boundary, not from scratch) for subsequent updates.
func TestTailerCompactionHandoff(t *testing.T) {
	primary, pcat := newPrimary(t, 0)
	base := 8
	postUpdate(t, primary.URL, base, 4)
	base += 4
	rep := newReplica(t, &repl.HTTPClient{BaseURL: primary.URL},
		repl.TailerConfig{Datasets: []string{"d"}})
	rep.waitSync(t)
	resyncsBefore := rep.counter("gtpq_repl_resyncs_total")

	ds, err := pcat.Compact("d")
	if err != nil {
		t.Fatal(err)
	}
	ds.Release()
	postUpdate(t, primary.URL, base, 3)
	base += 3

	rep.waitSync(t)
	assertEquivalent(t, primary.URL, rep.srv.URL)
	handoffs := rep.counter("gtpq_repl_resyncs_total") - resyncsBefore
	if handoffs < 1 {
		t.Fatalf("no re-sync after primary compaction")
	}

	// Post-handoff updates must tail incrementally from the new base.
	postUpdate(t, primary.URL, base, 3)
	rep.waitSync(t)
	assertEquivalent(t, primary.URL, rep.srv.URL)
	if extra := rep.counter("gtpq_repl_resyncs_total") - resyncsBefore - handoffs; extra != 0 {
		t.Errorf("%d extra re-sync(s) after the handoff; want incremental tailing", extra)
	}
}

// Shard directories ship via the manifest with per-file SHA-256
// verification, a one-shard directory too: a base ships as stored.
// Tailing afterwards works exactly as for flat bases.
func TestTailerShardedBootstrapAndTail(t *testing.T) {
	for _, k := range []int{2, 1} {
		primary, _ := newPrimary(t, k)
		postUpdate(t, primary.URL, 8, 4)
		rep := newReplica(t, &repl.HTTPClient{BaseURL: primary.URL},
			repl.TailerConfig{Datasets: []string{"d"}})
		rep.waitSync(t)
		assertEquivalent(t, primary.URL, rep.srv.URL)
		if n := rep.counter("gtpq_repl_resyncs_total"); n < 1 {
			t.Errorf("k=%d: resyncs = %d, want >= 1 (bootstrap ships the base)", k, n)
		}
		_, dirErr := os.Stat(filepath.Join(rep.dir, "d", "manifest.json"))
		_, snapErr := os.Stat(filepath.Join(rep.dir, "d.snap"))
		if dirErr != nil || snapErr == nil {
			t.Errorf("k=%d: replica installed a directory %v, a snapshot %v", k, dirErr == nil, snapErr == nil)
		}
	}
}

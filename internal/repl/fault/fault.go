// Package fault injects transport damage into a replication Client.
// The Injector sits between the tailer and its real Client — exactly
// where a flaky network would — so every fault exercises the tailer's
// own detection layers rather than test-only shortcuts:
//
//   - drop: the fetch fails outright (connection refused / reset);
//     heals by retrying with backoff.
//   - delay: the fetch stalls before returning; heals by waiting.
//   - truncate: bytes vanish off the chunk's tail while the CRC header
//     still describes the full body; the chunk CRC check catches it.
//   - duplicate: a region of the chunk is delivered twice (the classic
//     replay/retransmit bug that would silently double-apply batches);
//     the chunk CRC catches it before any frame is parsed.
//   - flip: one bit flips in the body and — the nasty case — the chunk
//     CRC is recomputed over the damaged bytes, as a corrupting proxy
//     that re-frames would do. The chunk check passes; the delta log's
//     per-frame CRCs catch it (delta.ErrFrameCorrupt).
//   - kill: every call fails until Revive — a dead or partitioned
//     primary; replicas back off and re-attach when it returns.
//
// A base root fetch gets the stale-CRC faults only (never a recomputed
// CRC): a flipped byte inside a snapshot or JSON graph has no deeper
// integrity layer, so the injector must not manufacture a fault class
// real transports plus our CRC discipline cannot produce undetected.
// The files a shard manifest lists do get recomputed-CRC flips — the
// manifest's SHA-256 is the deeper layer that catches them.
package fault

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gtpq/internal/repl"
)

// Config sets per-call fault probabilities (each in [0,1]; evaluated
// as one roll across the classes in order, so the sum must stay ≤ 1).
type Config struct {
	Drop      float64
	Delay     float64
	Duplicate float64
	Truncate  float64
	Flip      float64
	// MaxDelay bounds one injected stall (default 30ms).
	MaxDelay time.Duration
	// Seed fixes the fault sequence (0 → 1); chaos runs pin it so a
	// failure reproduces.
	Seed int64
}

// ErrInjectedDrop is the transport failure injected by a drop fault.
var ErrInjectedDrop = errors.New("fault: injected drop")

// ErrKilled is returned for every call while the injector simulates a
// dead primary (Kill).
var ErrKilled = errors.New("fault: primary killed")

// Injector wraps a Client with probabilistic transport damage.
type Injector struct {
	inner  repl.Client
	cfg    Config
	killed atomic.Bool

	mu     sync.Mutex
	rng    *rand.Rand
	counts map[string]int64
}

// New wraps inner.
func New(inner repl.Client, cfg Config) *Injector {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 30 * time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{
		inner:  inner,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(seed)),
		counts: map[string]int64{},
	}
}

// Kill makes every subsequent call fail with ErrKilled until Revive.
func (in *Injector) Kill() { in.killed.Store(true) }

// Revive ends a Kill.
func (in *Injector) Revive() { in.killed.Store(false) }

// Counts snapshots how many faults of each class fired.
func (in *Injector) Counts() map[string]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

func (in *Injector) note(class string) {
	in.mu.Lock()
	in.counts[class]++
	in.mu.Unlock()
}

// roll picks at most one fault class for this call.
func (in *Injector) roll() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.rng.Float64()
	for _, c := range []struct {
		name string
		p    float64
	}{
		{"drop", in.cfg.Drop},
		{"delay", in.cfg.Delay},
		{"duplicate", in.cfg.Duplicate},
		{"truncate", in.cfg.Truncate},
		{"flip", in.cfg.Flip},
	} {
		if r < c.p {
			in.counts[c.name]++
			return c.name
		}
		r -= c.p
	}
	return ""
}

// delayFor samples a stall duration.
func (in *Injector) delayFor() time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	return time.Duration(in.rng.Int63n(int64(in.cfg.MaxDelay) + 1))
}

// intn samples [0,n) under the injector's seed.
func (in *Injector) intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

// sleepCtx stalls without outliving the caller's context.
func sleepCtx(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// damage applies a post-fetch fault to ch. recomputeFlipCRC selects
// whether a flip re-frames the chunk CRC (log chunks and manifest-listed
// base files, where a deeper integrity layer exists) or leaves it stale.
func (in *Injector) damage(class string, ch repl.Chunk, recomputeFlipCRC bool) repl.Chunk {
	switch class {
	case "truncate":
		if len(ch.Data) > 1 {
			ch.Data = ch.Data[:in.intn(len(ch.Data))]
		}
	case "duplicate":
		if len(ch.Data) > 0 {
			start := in.intn(len(ch.Data))
			dup := ch.Data[start:]
			grown := make([]byte, 0, len(ch.Data)+len(dup))
			grown = append(grown, ch.Data...)
			grown = append(grown, dup...)
			ch.Data = grown
		}
	case "flip":
		if len(ch.Data) > 0 {
			flipped := append([]byte(nil), ch.Data...)
			i := in.intn(len(flipped))
			flipped[i] ^= 1 << uint(in.intn(8))
			ch.Data = flipped
			if recomputeFlipCRC {
				ch.CRC = crc32.ChecksumIEEE(ch.Data)
			}
		}
	}
	return ch
}

// fetch runs one faulted call. flipDeep marks fetches whose payload
// has an integrity layer beneath the chunk CRC.
func (in *Injector) fetch(ctx context.Context, flipDeep bool, call func() (repl.Chunk, error)) (repl.Chunk, error) {
	if in.killed.Load() {
		in.note("killed")
		return repl.Chunk{}, ErrKilled
	}
	class := in.roll()
	switch class {
	case "drop":
		return repl.Chunk{}, fmt.Errorf("%w", ErrInjectedDrop)
	case "delay":
		sleepCtx(ctx, in.delayFor())
	}
	ch, err := call()
	if err != nil {
		return ch, err
	}
	return in.damage(class, ch, flipDeep), nil
}

// FetchLog implements repl.Client.
func (in *Injector) FetchLog(ctx context.Context, dataset string, from int64, max int, wait time.Duration) (repl.Chunk, error) {
	return in.fetch(ctx, true, func() (repl.Chunk, error) {
		return in.inner.FetchLog(ctx, dataset, from, max, wait)
	})
}

// FetchBase implements repl.Client. A root's flips keep a stale CRC;
// a manifest-listed file's recompute it, since SHA-256 backs them (see
// the package comment).
func (in *Injector) FetchBase(ctx context.Context, dataset, file string) (repl.Chunk, error) {
	return in.fetch(ctx, file != "", func() (repl.Chunk, error) {
		return in.inner.FetchBase(ctx, dataset, file)
	})
}

// ListDatasets implements repl.Client (kill faults only — the listing
// is a one-time Start concern, not the replication data path).
func (in *Injector) ListDatasets(ctx context.Context) ([]string, error) {
	if in.killed.Load() {
		in.note("killed")
		return nil, ErrKilled
	}
	return in.inner.ListDatasets(ctx)
}

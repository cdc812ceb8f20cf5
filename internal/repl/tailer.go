package repl

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/delta"
	"gtpq/internal/obs"
)

// Backoff tunes the tailer's retry delays: exponential from Min to
// Max with multiplicative jitter so a fleet of replicas does not
// hammer a recovering primary in lockstep.
type Backoff struct {
	Min    time.Duration // first retry delay (default 50ms)
	Max    time.Duration // delay ceiling (default 5s)
	Jitter float64       // ± fraction of the delay (default 0.2)
}

func (b Backoff) withDefaults() Backoff {
	if b.Min <= 0 {
		b.Min = 50 * time.Millisecond
	}
	if b.Max < b.Min {
		b.Max = 5 * time.Second
		if b.Max < b.Min {
			b.Max = b.Min
		}
	}
	if b.Jitter <= 0 {
		b.Jitter = 0.2
	}
	return b
}

// TailerConfig tunes a Tailer.
type TailerConfig struct {
	// Datasets to follow; empty discovers the primary's list at Start.
	Datasets []string
	// MaxLag is the batch lag beyond which the replica reports
	// not-ready (default 64). Serving continues regardless — readiness
	// is the router's signal, not a correctness gate.
	MaxLag int
	// PollWait is the long-poll budget per fetch (default 2s).
	PollWait time.Duration
	// Backoff shapes retry delays after a failed fetch or apply.
	Backoff Backoff
	// Seed fixes the jitter sequence (0: a fixed default — determinism
	// beats entropy here; multi-process fleets diverge via Seed).
	Seed int64
	// Logf, when set, receives tailer lifecycle messages.
	Logf func(format string, args ...interface{})
}

func (c TailerConfig) withDefaults() TailerConfig {
	if c.MaxLag <= 0 {
		c.MaxLag = 64
	}
	if c.PollWait <= 0 {
		c.PollWait = 2 * time.Second
	}
	c.Backoff = c.Backoff.withDefaults()
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// dsStatus is one followed dataset's replication state.
type dsStatus struct {
	// lagBatches/lagBytes measure distance behind the last observed
	// primary state (clamped at 0 — a primary-side fold can shrink its
	// counters below ours until re-sync).
	lagBatches int64
	lagBytes   int64
	// synced: at least one fetch round fully applied and within MaxLag.
	synced bool
	// begun numbers the rounds the tail loop has started; completed is
	// the number of the last one that ended without error. WaitSync
	// waits for a round numbered past begun at its call.
	begun, completed int64
	// waiters counts pending WaitSync calls; while there are any, rounds
	// fetch without a long-poll.
	waiters int
	// cancelPoll aborts the in-flight round's long-poll (nil when the
	// round does not long-poll).
	cancelPoll context.CancelFunc
	// roundDone is closed and replaced each time a round completes.
	roundDone chan struct{}
	// lastErr is the most recent failure (cleared on success).
	lastErr string
}

// Tailer follows a primary's delta logs and applies them to the local
// catalog. One goroutine per dataset: fetch a chunk from the local
// log's byte length (the durable offset), verify its CRC, decode
// frames, re-apply each batch through catalog.ApplyDelta — which
// appends the identical bytes to the local log, advancing the offset.
// Base mismatches (bootstrap, primary compaction) re-sync by shipping
// the base; every failure backs off exponentially with jitter and
// retries forever — readiness, not liveness, reports the degradation.
type Tailer struct {
	cat    *catalog.Catalog
	client Client
	cfg    TailerConfig

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	states map[string]*dsStatus
	rng    *rand.Rand

	// Counters (registered via Register; private registry otherwise).
	chunks     *obs.Counter
	bytesIn    *obs.Counter
	applied    *obs.Counter
	resyncs    *obs.Counter
	reconnects *obs.Counter
	errs       *obs.CounterVec // by class
}

// NewTailer builds a tailer over the local catalog, following the
// primary behind client. Call Register to expose its metrics on a
// shared registry, then Start.
func NewTailer(cat *catalog.Catalog, client Client, cfg TailerConfig) *Tailer {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	t := &Tailer{
		cat:    cat,
		client: client,
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		states: map[string]*dsStatus{},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	t.Register(obs.NewRegistry())
	return t
}

// Register binds the tailer's metric families to reg: the gtpq_repl_*
// counters and the per-dataset gtpq_replica_lag gauges (generation
// delta vs the primary, plus a byte-distance variant) next to the
// catalog's gtpq_dataset_* families. Call before Start.
func (t *Tailer) Register(reg *obs.Registry) {
	t.chunks = reg.Counter("gtpq_repl_chunks_total", "Log chunks fetched from the primary.")
	t.bytesIn = reg.Counter("gtpq_repl_bytes_total", "Log bytes applied from fetched chunks.")
	t.applied = reg.Counter("gtpq_repl_batches_applied_total", "Delta batches re-applied locally.")
	t.resyncs = reg.Counter("gtpq_repl_resyncs_total", "Base re-syncs (bootstrap, compaction handoff, fingerprint mismatch).")
	t.reconnects = reg.Counter("gtpq_repl_reconnects_total", "Fetch rounds that failed and were retried with backoff.")
	t.errs = reg.CounterVec("gtpq_repl_errors_total", "Replication faults by class.", "class")
	collectLag := func(read func(*dsStatus) float64) func() []obs.Sample {
		return func() []obs.Sample {
			t.mu.Lock()
			defer t.mu.Unlock()
			names := make([]string, 0, len(t.states))
			for name := range t.states {
				names = append(names, name)
			}
			sort.Strings(names)
			samples := make([]obs.Sample, 0, len(names))
			for _, name := range names {
				samples = append(samples, obs.Sample{Labels: []string{name}, Value: read(t.states[name])})
			}
			return samples
		}
	}
	reg.CollectFunc("gtpq_replica_lag", "Batches this replica is behind the primary, per dataset.",
		obs.TypeGauge, []string{"dataset"}, collectLag(func(s *dsStatus) float64 { return float64(s.lagBatches) }))
	reg.CollectFunc("gtpq_replica_lag_bytes", "Log bytes this replica is behind the primary, per dataset.",
		obs.TypeGauge, []string{"dataset"}, collectLag(func(s *dsStatus) float64 { return float64(s.lagBytes) }))
	reg.CollectFunc("gtpq_replica_synced", "1 when the dataset is tailing within the lag bound.",
		obs.TypeGauge, []string{"dataset"}, collectLag(func(s *dsStatus) float64 {
			if s.synced {
				return 1
			}
			return 0
		}))
}

func (t *Tailer) logf(format string, args ...interface{}) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// Start resolves the dataset list (discovering from the primary when
// none was configured) and launches one tail loop per dataset.
func (t *Tailer) Start() error {
	datasets := t.cfg.Datasets
	if len(datasets) == 0 {
		var err error
		for attempt := 0; attempt < 10; attempt++ {
			datasets, err = t.client.ListDatasets(t.ctx)
			if err == nil {
				break
			}
			select {
			case <-t.ctx.Done():
				return t.ctx.Err()
			case <-time.After(t.delay(attempt)):
			}
		}
		if err != nil {
			return fmt.Errorf("repl: discovering datasets: %w", err)
		}
	}
	if len(datasets) == 0 {
		return errors.New("repl: primary serves no datasets")
	}
	t.mu.Lock()
	for _, name := range datasets {
		t.statusLocked(name)
	}
	t.mu.Unlock()
	for _, name := range datasets {
		t.wg.Add(1)
		go t.tailLoop(name)
	}
	t.logf("repl: tailing %d dataset(s): %v", len(datasets), datasets)
	return nil
}

// Stop halts every tail loop and waits for them.
func (t *Tailer) Stop() {
	t.cancel()
	t.wg.Wait()
}

// delay computes the backoff for the given consecutive failure count,
// with multiplicative jitter.
func (t *Tailer) delay(fails int) time.Duration {
	b := t.cfg.Backoff
	d := b.Min
	for i := 0; i < fails && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	t.mu.Lock()
	f := 1 + b.Jitter*(2*t.rng.Float64()-1)
	t.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// statusLocked returns (creating on first use) the named dataset's
// status; caller holds t.mu.
func (t *Tailer) statusLocked(name string) *dsStatus {
	st := t.states[name]
	if st == nil {
		st = &dsStatus{roundDone: make(chan struct{})}
		t.states[name] = st
	}
	return st
}

func (t *Tailer) setStatus(name string, f func(*dsStatus)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f(t.statusLocked(name))
}

// Ready reports whether every followed dataset is in-sync within
// MaxLag, and names the ones that are not. The server's /readyz
// consumes it; the router consumes /readyz.
func (t *Tailer) Ready() (bool, []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lagging []string
	for name, st := range t.states {
		if !st.synced || st.lagBatches > int64(t.cfg.MaxLag) {
			lagging = append(lagging, name)
		}
	}
	sort.Strings(lagging)
	return len(lagging) == 0, lagging
}

// Lag returns the named dataset's batch lag behind the last observed
// primary state (false when the dataset is not followed).
func (t *Tailer) Lag(name string) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.states[name]
	if st == nil {
		return 0, false
	}
	return st.lagBatches, true
}

// WaitSync blocks until the named dataset is fully caught up (synced
// with zero lag) or ctx expires. "Caught up" is measured freshly: the
// zero-lag state must come from a fetch round that began after this
// call, so a write acknowledged by the primary before WaitSync is
// guaranteed visible — stale pre-write sync state cannot satisfy it.
// A long-poll in flight at the call is cancelled, and rounds begun
// while any WaitSync is pending fetch without waiting, so a caught-up
// replica answers within one round trip rather than one PollWait.
func (t *Tailer) WaitSync(ctx context.Context, name string) error {
	t.mu.Lock()
	st := t.statusLocked(name)
	target := st.begun + 1
	st.waiters++
	if st.cancelPoll != nil {
		st.cancelPoll()
	}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		st.waiters--
		t.mu.Unlock()
	}()
	for {
		t.mu.Lock()
		done := st.completed >= target && st.synced && st.lagBatches == 0
		wake := st.roundDone
		t.mu.Unlock()
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			t.mu.Lock()
			lastErr := st.lastErr
			t.mu.Unlock()
			return fmt.Errorf("repl: %s: waiting for sync: %w (last error: %s)", name, ctx.Err(), lastErr)
		case <-wake:
		}
	}
}

// beginRound numbers the next round and picks its fetch: a long-poll
// of PollWait under a context WaitSync can cancel, or no wait while a
// WaitSync is pending. end must be called with the round's outcome: it
// records it, unless the round failed only because it was cancelled,
// which it reports.
func (t *Tailer) beginRound(name string) (ctx context.Context, wait time.Duration, end func(error) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.statusLocked(name)
	st.begun++
	round := st.begun
	ctx, cancel := context.WithCancel(t.ctx)
	if st.waiters == 0 {
		wait = t.cfg.PollWait
		st.cancelPoll = cancel
	}
	return ctx, wait, func(err error) bool {
		cut := err != nil && ctx.Err() != nil
		cancel()
		t.mu.Lock()
		defer t.mu.Unlock()
		st.cancelPoll = nil
		switch {
		case err == nil:
			st.lastErr = ""
			st.completed = round
			close(st.roundDone)
			st.roundDone = make(chan struct{})
		case !cut:
			st.lastErr = err.Error()
			st.synced = false
		}
		return cut
	}
}

// tailLoop drives one dataset forever: fetch, verify, apply; back off
// on failure with exponentially growing, jittered delays.
func (t *Tailer) tailLoop(name string) {
	defer t.wg.Done()
	fails := 0
	for t.ctx.Err() == nil {
		ctx, wait, end := t.beginRound(name)
		err := t.step(ctx, name, wait)
		if end(err) {
			continue // a WaitSync or Stop cut the round short
		}
		if err == nil {
			fails = 0
			continue
		}
		fails++
		t.reconnects.Inc()
		t.logf("repl: %s: %v (retry %d)", name, err, fails)
		select {
		case <-t.ctx.Done():
			return
		case <-time.After(t.delay(fails)):
		}
	}
}

// step runs one fetch+apply round, long-polling up to wait under ctx.
// A nil return means progress (or a clean caught-up long-poll); any
// error is retried by tailLoop.
func (t *Tailer) step(ctx context.Context, name string, wait time.Duration) error {
	_, local, err := t.cat.ReadLogChunk(name, 0, 0)
	if errors.Is(err, catalog.ErrUnknownDataset) {
		return t.resync(name, "bootstrap")
	}
	if err != nil {
		t.errs.With("local").Inc()
		if errors.Is(err, catalog.ErrClosed) || catalog.IsReloadRace(err) {
			return fmt.Errorf("reading local log state: %w", err)
		}
		// The local copy does not load (a damaged base or log): the
		// primary's base replaces it.
		return t.resync(name, "local damage")
	}

	remote, err := t.client.FetchLog(ctx, name, local.Size, chunkBytes, wait)
	if err != nil {
		if ctx.Err() != nil {
			return err // cancelled, not a fault
		}
		t.errs.With("fetch").Inc()
		return fmt.Errorf("fetching log: %w", err)
	}
	t.chunks.Inc()
	if crc32.ChecksumIEEE(remote.Data) != remote.CRC {
		t.errs.With("chunk_corrupt").Inc()
		return fmt.Errorf("%w (offset %d, %d bytes)", ErrChunkCorrupt, local.Size, len(remote.Data))
	}
	if remote.State.Base != local.Base {
		// The primary's base changed underneath us — a compaction fold,
		// or we were pointed at a different graph. Re-ship the base.
		return t.resync(name, "base changed")
	}
	if remote.State.Size < local.Size {
		// Same base but a shorter log cannot happen on an append-only
		// primary; treat it as a foreign log and re-sync.
		t.errs.With("log_regressed").Inc()
		return t.resync(name, "log regressed")
	}
	if int64(len(remote.Data)) > remote.State.Size-local.Size {
		// More bytes than the advertised log holds past our offset: a
		// replayed or stale response (e.g. re-delivered after a
		// reconnect). Its frames are individually valid — applying them
		// would silently double-apply batches — so this check is the one
		// that makes duplicate delivery a loud, retryable fault.
		t.errs.With("chunk_overrun").Inc()
		return fmt.Errorf("%w: %d bytes but advertised log has %d past offset %d",
			ErrChunkCorrupt, len(remote.Data), remote.State.Size-local.Size, local.Size)
	}

	data := remote.Data
	off := 0
	if local.Size == 0 && len(data) > 0 {
		// Chunk starts at offset zero: it opens with the log header.
		if len(data) < delta.HeaderLen {
			t.updateLag(name, local, remote.State, 0, 0)
			return nil // torn mid-header; refetch from 0
		}
		hdr, err := delta.ParseHeader(data)
		if err != nil {
			t.errs.With("header_corrupt").Inc()
			return fmt.Errorf("%w: %v", ErrChunkCorrupt, err)
		}
		if hdr != local.Base {
			t.errs.With("base_mismatch").Inc()
			return t.resync(name, "log header names a different base")
		}
		off = delta.HeaderLen
	}
	appliedBatches := 0
	for off < len(data) {
		b, n, err := delta.NextFrame(data[off:])
		if err != nil {
			// In-band corruption the chunk CRC could not see (the CRC
			// was recomputed after the damage): the frame CRCs catch it.
			t.errs.With("frame_corrupt").Inc()
			return fmt.Errorf("frame at offset %d: %w", int(local.Size)+off, err)
		}
		if n == 0 {
			break // torn tail mid-chunk: apply the complete prefix only
		}
		// The local append is fsynced with the identical frame
		// encoding, so the local offset advances exactly as the
		// primary's did.
		ds, err := t.cat.ApplyDelta(name, b)
		if err != nil {
			t.errs.With("apply").Inc()
			return fmt.Errorf("applying batch at offset %d: %w", int(local.Size)+off, err)
		}
		ds.Release()
		appliedBatches++
		off += n
	}
	t.bytesIn.Add(int64(off))
	t.applied.Add(int64(appliedBatches))
	t.updateLag(name, local, remote.State, appliedBatches, off)
	return nil
}

// updateLag recomputes the dataset's lag gauges after a round: local
// progress is the pre-round state plus what the round applied (applied
// batches, consumed log bytes — frame encoding is deterministic, so
// consumed bytes equal the local log's growth); primary progress is
// the fetched state's counters.
func (t *Tailer) updateLag(name string, local catalog.LogState, remote State, applied, consumed int) {
	lagB := max(0, int64(remote.Batches)-int64(local.Batches+applied))
	byteLag := max(0, remote.Size-(local.Size+int64(consumed)))
	t.setStatus(name, func(s *dsStatus) {
		s.lagBatches = lagB
		s.lagBytes = byteLag
		s.synced = lagB <= int64(t.cfg.MaxLag)
	})
}

// resync ships the primary's base and restarts tailing from it:
// bootstrap (no local dataset), local damage (a local copy that does
// not load), a base-fingerprint mismatch, or a primary-side compaction
// fold (the handoff case — the old log is
// gone, the batches live inside the new base). The base arrives as
// the files the primary stores and is installed through the catalog.
func (t *Tailer) resync(name, reason string) error {
	t.resyncs.Inc()
	t.logf("repl: %s: re-syncing base (%s)", name, reason)
	base, err := t.client.FetchBase(t.ctx, name, "")
	if err != nil {
		t.errs.With("base_fetch").Inc()
		return fmt.Errorf("fetching base (%s): %w", reason, err)
	}
	if crc32.ChecksumIEEE(base.Data) != base.CRC {
		t.errs.With("chunk_corrupt").Inc()
		return fmt.Errorf("%w (base ship)", ErrChunkCorrupt)
	}
	// InstallBase drops the local delta log before any file of the new
	// base becomes visible: a leftover log of the old base must never
	// replay over it.
	err = t.cat.InstallBase(name, base.File, base.Data, func(file string) ([]byte, error) {
		ch, err := t.client.FetchBase(t.ctx, name, file)
		if err == nil && crc32.ChecksumIEEE(ch.Data) != ch.CRC {
			err = ErrChunkCorrupt
		}
		return ch.Data, err
	})
	if err != nil {
		t.errs.With("base_install").Inc()
		return fmt.Errorf("installing base (%s): %w", reason, err)
	}
	_, local, err := t.cat.ReadLogChunk(name, 0, 0)
	if err != nil {
		t.errs.With("base_install").Inc()
		return fmt.Errorf("loading shipped base (%s): %w", reason, err)
	}
	if local.Base != base.State.Base {
		t.errs.With("base_mismatch").Inc()
		return fmt.Errorf("%w: shipped base loads as %s, primary says %s",
			ErrBaseMismatch, local.Base, base.State.Base)
	}
	t.setStatus(name, func(s *dsStatus) {
		s.lagBatches = int64(base.State.Batches)
		s.lagBytes = base.State.Size
		s.synced = int64(base.State.Batches) <= int64(t.cfg.MaxLag)
	})
	t.logf("repl: %s: base installed from %s (%s), tailing from offset 0", name, base.File, base.State.Base)
	return nil
}

package repl

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/delta"
	"gtpq/internal/obs"
	"gtpq/internal/shard"
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

// chunkBytes caps one log fetch.
const chunkBytes = 1 << 20

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
	// rounds counts successful fetch+apply rounds (caught-up long-polls
	// included); WaitSync uses it to distinguish fresh state from stale.
	rounds int64
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
	seq    int64 // per-replica jitter decorrelation

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
		if t.states[name] == nil {
			t.states[name] = &dsStatus{}
		}
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

func (t *Tailer) status(name string) *dsStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.states[name]
	if st == nil {
		st = &dsStatus{}
		t.states[name] = st
	}
	return st
}

func (t *Tailer) setStatus(name string, f func(*dsStatus)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.states[name]
	if st == nil {
		st = &dsStatus{}
		t.states[name] = st
	}
	f(st)
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

// LastError returns the named dataset's most recent failure ("" when
// healthy).
func (t *Tailer) LastError(name string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.states[name]; st != nil {
		return st.lastErr
	}
	return ""
}

// WaitSync blocks until the named dataset is fully caught up (synced
// with zero lag) or ctx expires. "Caught up" is measured freshly: the
// zero-lag state must come from a fetch round that began after this
// call, so a write acknowledged by the primary before WaitSync is
// guaranteed visible — stale pre-write sync state cannot satisfy it.
// Two completed rounds give that guarantee: the first may have issued
// its fetch before the call; the second cannot have.
func (t *Tailer) WaitSync(ctx context.Context, name string) error {
	t.mu.Lock()
	var start int64
	if st := t.states[name]; st != nil {
		start = st.rounds
	}
	t.mu.Unlock()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		t.mu.Lock()
		st := t.states[name]
		done := st != nil && st.rounds >= start+2 && st.synced && st.lagBatches == 0
		t.mu.Unlock()
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("repl: %s: waiting for sync: %w (last error: %s)", name, ctx.Err(), t.LastError(name))
		case <-tick.C:
		}
	}
}

// tailLoop drives one dataset forever: fetch, verify, apply; back off
// on failure with exponentially growing, jittered delays.
func (t *Tailer) tailLoop(name string) {
	defer t.wg.Done()
	fails := 0
	for {
		select {
		case <-t.ctx.Done():
			return
		default:
		}
		err := t.step(name)
		if err == nil {
			fails = 0
			t.setStatus(name, func(s *dsStatus) {
				s.lastErr = ""
				s.rounds++
			})
			continue
		}
		if t.ctx.Err() != nil {
			return
		}
		fails++
		t.reconnects.Inc()
		t.setStatus(name, func(s *dsStatus) {
			s.lastErr = err.Error()
			s.synced = false
		})
		t.logf("repl: %s: %v (retry %d)", name, err, fails)
		select {
		case <-t.ctx.Done():
			return
		case <-time.After(t.delay(fails)):
		}
	}
}

// step runs one fetch+apply round. A nil return means progress (or a
// clean caught-up long-poll); any error is retried by tailLoop.
func (t *Tailer) step(name string) error {
	_, local, err := t.cat.ReadLogChunk(name, 0, 0)
	if errors.Is(err, catalog.ErrUnknownDataset) {
		return t.resync(name, "bootstrap")
	}
	if err != nil {
		t.errs.With("local").Inc()
		return fmt.Errorf("reading local log state: %w", err)
	}

	remote, err := t.client.FetchLog(t.ctx, name, local.Size, chunkBytes, t.cfg.PollWait)
	if err != nil {
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
		if _, err := t.applyBatch(name, b); err != nil {
			t.errs.With("apply").Inc()
			return fmt.Errorf("applying batch at offset %d: %w", int(local.Size)+off, err)
		}
		appliedBatches++
		off += n
	}
	t.bytesIn.Add(int64(off))
	t.applied.Add(int64(appliedBatches))
	t.updateLag(name, local, remote.State, appliedBatches, off)
	return nil
}

// applyBatch re-applies one decoded batch through the local catalog —
// the append is fsynced to the local log with the identical frame
// encoding, so the local byte offset advances exactly as the
// primary's did.
func (t *Tailer) applyBatch(name string, b delta.Batch) (uint64, error) {
	ds, err := t.cat.ApplyDelta(name, b)
	if err != nil {
		return 0, err
	}
	gen := ds.Generation
	ds.Release()
	return gen, nil
}

// updateLag recomputes the dataset's lag gauges after a round: local
// progress is the pre-round state plus what the round applied (applied
// batches, consumed log bytes — frame encoding is deterministic, so
// consumed bytes equal the local log's growth); primary progress is
// the fetched state's counters.
func (t *Tailer) updateLag(name string, local catalog.LogState, remote State, applied, consumed int) {
	lagB := int64(remote.Batches) - int64(local.Batches+applied)
	if lagB < 0 {
		lagB = 0
	}
	byteLag := remote.Size - (local.Size + int64(consumed))
	if byteLag < 0 {
		byteLag = 0
	}
	t.setStatus(name, func(s *dsStatus) {
		s.lagBatches = lagB
		s.lagBytes = byteLag
		s.synced = lagB <= int64(t.cfg.MaxLag)
	})
}

// resync ships the primary's base and restarts tailing from it:
// bootstrap (no local dataset), a base-fingerprint mismatch, or a
// primary-side compaction fold (the handoff case — the old log is
// gone, the batches live inside the new base). The local delta log is
// dropped FIRST: the moment the new base lands, a leftover log of the
// old base must already be impossible to replay over it.
func (t *Tailer) resync(name, reason string) error {
	t.resyncs.Inc()
	t.logf("repl: %s: re-syncing base (%s)", name, reason)
	base, err := t.client.FetchBase(t.ctx, name)
	if err != nil {
		t.errs.With("base_fetch").Inc()
		return fmt.Errorf("fetching base (%s): %w", reason, err)
	}
	if crc32.ChecksumIEEE(base.Data) != base.CRC {
		t.errs.With("chunk_corrupt").Inc()
		return fmt.Errorf("%w (base ship)", ErrChunkCorrupt)
	}
	if base.State.Sharded {
		err = t.installSharded(name, base)
	} else {
		err = t.installFlat(name, base)
	}
	if err != nil {
		t.errs.With("base_install").Inc()
		return fmt.Errorf("installing base (%s): %w", reason, err)
	}
	t.cat.Reload(name)
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
	t.logf("repl: %s: base installed (%s), tailing from offset 0", name, base.State.Base)
	return nil
}

// installFlat installs a snapshot base: drop the local log (it belongs
// to the old base), clear a stale sharded directory that would win
// resolution, then publish the snapshot atomically.
func (t *Tailer) installFlat(name string, base Chunk) error {
	if err := t.cat.DropLog(name); err != nil {
		return err
	}
	dir := t.cat.Dir()
	if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+name+".replbase-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(base.Data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, name+".snap"))
}

// installSharded installs a sharded base: fetch every manifest-listed
// file into a staging directory, verify each against the manifest's
// SHA-256 (the same integrity root shard.LoadDir enforces), then swap
// the directory in atomically. Any verification failure aborts with
// the staging directory removed — the live dataset is untouched.
func (t *Tailer) installSharded(name string, base Chunk) error {
	dir := t.cat.Dir()
	staging := filepath.Join(dir, "."+name+".replship")
	if err := os.RemoveAll(staging); err != nil {
		return err
	}
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(staging)
	manPath := filepath.Join(staging, shard.ManifestName)
	if err := os.WriteFile(manPath, base.Data, 0o644); err != nil {
		return err
	}
	man, err := shard.ReadManifest(manPath)
	if err != nil {
		return fmt.Errorf("shipped manifest: %w", err)
	}
	if man.Name != name {
		return fmt.Errorf("shipped manifest names dataset %q, want %q", man.Name, name)
	}
	for i, sf := range man.Shards {
		for _, want := range []struct{ file, sha string }{
			{sf.Snap, sf.SnapSHA256},
			{sf.IDs, sf.IDsSHA256},
		} {
			ch, err := t.client.FetchBaseFile(t.ctx, name, want.file)
			if err != nil {
				return fmt.Errorf("shard %d: fetching %s: %w", i, want.file, err)
			}
			if crc32.ChecksumIEEE(ch.Data) != ch.CRC {
				return fmt.Errorf("shard %d: %s: %w", i, want.file, ErrChunkCorrupt)
			}
			if err := shard.VerifySHA256(ch.Data, want.sha); err != nil {
				return fmt.Errorf("shard %d: %s: %w", i, want.file, err)
			}
			if err := os.WriteFile(filepath.Join(staging, want.file), ch.Data, 0o644); err != nil {
				return err
			}
		}
	}
	if err := t.cat.DropLog(name); err != nil {
		return err
	}
	live := filepath.Join(dir, name)
	if err := os.RemoveAll(live); err != nil {
		return err
	}
	return os.Rename(staging, live)
}

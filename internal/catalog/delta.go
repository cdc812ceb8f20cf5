package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gtpq/internal/delta"
	"gtpq/internal/gtea"
	"gtpq/internal/shard"
	"gtpq/internal/snapshot"
)

// Live updates thread through the catalog as follows. Every dataset
// may carry a delta log (`<name>.deltas.log`, see internal/delta) next
// to its snapshot or sharded directory. Loads replay the log over the
// frozen base and serve an overlay engine; ApplyDelta appends one
// durable record and hot-swaps in a new entry generation (in-flight
// holders keep theirs, the result cache keys past it for free);
// Compact folds the pending batches into a fresh base of the same
// shard count, serves it from memory, persists it as a fresh snapshot
// — or a fresh re-sharded directory — and deletes the log. One *dlog
// per dataset name serializes every log mutation; it outlives entry
// generations, so the open file handle and the compaction counter
// survive hot swaps.

// dlog is the per-dataset delta-log state. mu serializes log appends,
// replays, and compactions for the dataset; w is the open writer (nil
// until the first append or a load that found a log on disk).
type dlog struct {
	mu          sync.Mutex
	w           *delta.Writer
	compactions atomic.Int64
}

// dlogFor returns (creating on first use) the named dataset's log
// state.
func (c *Catalog) dlogFor(name string) *dlog {
	c.mu.Lock()
	defer c.mu.Unlock()
	dl := c.dlogs[name]
	if dl == nil {
		dl = &dlog{}
		c.dlogs[name] = dl
	}
	return dl
}

// logPath is the dataset's delta log location.
func (c *Catalog) logPath(name string) string {
	return filepath.Join(c.dir, name+delta.LogSuffix)
}

// foldMarkerPath is the dataset's compaction commit marker location.
func (c *Catalog) foldMarkerPath(name string) string {
	return filepath.Join(c.dir, name+delta.FoldMarkerSuffix)
}

// dropLog closes the dataset's delta log writer and removes the log
// and its fold marker; the caller holds dl.mu. An open writer must not
// keep appending into an unlinked inode.
func (c *Catalog) dropLog(name string, dl *dlog) error {
	if dl.w != nil {
		dl.w.Close()
		dl.w = nil
	}
	for _, p := range []string{c.logPath(name), c.foldMarkerPath(name)} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// deltaBaseOf materializes the entry's delta base on first need: the
// base engine's logical graph and its reachability routed through the
// composite index (internal/shard). At one shard both are the shard's
// own; at K > 1 the union graph is a copy, built only when a delta or
// a replication handler needs it. The result is memoized on the entry
// — entries are immutable after ready, except for this lazily-filled
// pair, which is only touched while holding the dataset's dlog mutex.
func (e *entry) deltaBaseOf() *deltaBase {
	if e.dbase == nil {
		e.dbase = &deltaBase{g: e.base.Union(), h: e.base.CompositeIndex()}
	}
	return e.dbase
}

// replayDeltas runs at the tail of every load: if the dataset has a
// delta log, verify it against the base, replay the pending batches,
// and swap the entry's engine for an overlay over the extended graph.
// A torn tail (crashed append) is truncated; any other corruption or
// a base mismatch fails the load loudly.
func (e *entry) replayDeltas() error {
	path := e.c.logPath(e.name)
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	dl := e.c.dlogFor(e.name)
	dl.mu.Lock()
	defer dl.mu.Unlock()

	start := time.Now()
	base := e.deltaBaseOf()
	id := delta.BaseOf(base.g)
	// Crash recovery for the compaction commit protocol: if a fold
	// into exactly this base was marked committed, the leftover log's
	// batches are already inside the base we just loaded — consume the
	// leftovers instead of failing the base-fingerprint check.
	if folded, err := delta.ResolveFold(path, e.c.foldMarkerPath(e.name), id); err != nil {
		return fmt.Errorf("catalog: %s: %w", e.name, err)
	} else if folded {
		// The log file is gone; a writer from the pre-fold generation
		// must not keep appending into the unlinked inode.
		if dl.w != nil {
			dl.w.Close()
			dl.w = nil
		}
		return nil
	}
	var batches []delta.Batch
	if dl.w == nil {
		w, got, err := delta.Open(path, id)
		if os.IsNotExist(err) {
			// The pre-lock stat saw the log, but a Compact holding
			// dl.mu folded and deleted it before we got here: the base
			// we just loaded already includes those batches.
			return nil
		}
		if err != nil {
			return fmt.Errorf("catalog: %s: %w", e.name, err)
		}
		dl.w = w
		batches = got
	} else {
		// A previous generation already owns the writer (hot reload of
		// the same on-disk base): replay read-only through the same
		// serialization point.
		got, _, err := delta.ReplayFile(path, id)
		if os.IsNotExist(err) {
			return nil // folded under dl.mu since the stat; see above
		}
		if err != nil {
			return fmt.Errorf("catalog: %s: %w", e.name, err)
		}
		batches = got
	}
	e.replay = time.Since(start)
	if len(batches) == 0 {
		return nil
	}
	if err := e.applyBatches(base, batches); err != nil {
		return fmt.Errorf("catalog: %s: %w", e.name, err)
	}
	return nil
}

// applyBatches points the entry's dataset at an overlay engine serving
// base ∪ batches.
func (e *entry) applyBatches(base *deltaBase, batches []delta.Batch) error {
	ext, err := delta.Extend(base.g, batches)
	if err != nil {
		return err
	}
	ov := delta.NewOverlay(base.h, base.g.N(), ext.N(), batches)
	e.batches = batches
	e.overlay = gtea.NewWithIndex(ext, ov, gtea.Options{NoPlan: e.c.opt.NoPlan})
	e.ds.Engine = e.overlay
	e.ds.nodes, e.ds.edges = ext.N(), ext.M()
	return nil
}

// currentEntry re-reads the live entry for name and verifies it is
// still the one ds was acquired from (ApplyDelta and Compact must
// never extend a superseded generation).
func (c *Catalog) currentEntry(name string, ds *Dataset) (*entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[name]
	if e == nil || e != ds.entry || e.stale {
		return nil, errEntryRaced{name: name}
	}
	return e, nil
}

// swapEntry replaces name's entry with next (ready already closed),
// provided the entry the mutation was derived from (prev) is still
// current — a hot reload that raced in from a fresher source wins
// instead of being silently discarded, and the caller's state reaches
// it through the durable log rather than the map. Either way the
// returned handle is an acquired view of next (its data reflects the
// mutation the caller just made durable).
func (c *Catalog) swapEntry(name string, prev, next *entry) *Dataset {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextGen++
	next.gen = c.nextGen
	next.ds.priceFromEngine()
	next.refs++ // the returned handle
	if old := c.entries[name]; old == prev {
		if old != nil && !old.stale {
			old.stale = true
			select {
			case <-old.ready:
				old.refs-- // drop the cache's own reference
			default:
			}
		}
		c.entries[name] = next
	}
	c.signalLocked()
	return next.handle()
}

// ApplyDelta durably appends one mutation batch to the named dataset
// and serves it immediately: the batch is fsynced to the delta log,
// the extended graph and reachability overlay are built (the frozen
// base index is untouched), and a new entry generation is swapped in —
// current holders keep their engine, result caches key past the old
// generation. The returned dataset handle reflects the update; the
// caller must Release it.
func (c *Catalog) ApplyDelta(name string, b delta.Batch) (*Dataset, error) {
	// A hot reload racing in between Acquire and the log lock
	// supersedes the entry we based the update on; retry against the
	// fresh one (appends themselves are serialized by dl.mu).
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		ds, err := c.applyDeltaOnce(name, b)
		if err == nil || !isEntryRaced(err) {
			return ds, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// errEntryRaced marks an update that lost the race with a concurrent
// reload; ApplyDelta retries it.
type errEntryRaced struct{ name string }

func (e errEntryRaced) Error() string {
	return fmt.Sprintf("catalog: %s: dataset reloaded concurrently", e.name)
}

func isEntryRaced(err error) bool {
	_, ok := err.(errEntryRaced)
	return ok
}

// IsReloadRace reports whether err is the transient lost-to-a-reload
// condition ApplyDelta gives up with after its retries; callers can
// safely retry the update (servers map it to 503 rather than a client
// error).
func IsReloadRace(err error) bool { return isEntryRaced(err) }

func (c *Catalog) applyDeltaOnce(name string, b delta.Batch) (*Dataset, error) {
	ds, err := c.Acquire(name)
	if err != nil {
		return nil, err
	}
	defer ds.Release()

	dl := c.dlogFor(name)
	dl.mu.Lock()
	defer dl.mu.Unlock()

	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("catalog: %s: %w", name, ErrClosed)
	}

	e, err := c.currentEntry(name, ds)
	if err != nil {
		return nil, err
	}
	// Validate first: materializing a K > 1 union can wait until the
	// batch is known good.
	if err := b.Validate(e.ds.Nodes()); err != nil {
		return nil, err
	}

	base := e.deltaBaseOf()
	if dl.w == nil {
		path := c.logPath(name)
		if _, serr := os.Stat(path); serr == nil {
			w, _, oerr := delta.Open(path, delta.BaseOf(base.g))
			if oerr != nil {
				return nil, fmt.Errorf("catalog: %s: %w", name, oerr)
			}
			dl.w = w
		} else {
			w, cerr := delta.Create(path, delta.BaseOf(base.g))
			if cerr != nil {
				return nil, fmt.Errorf("catalog: %s: %w", name, cerr)
			}
			dl.w = w
		}
	}
	if err := dl.w.Append(&b); err != nil {
		return nil, fmt.Errorf("catalog: %s: appending delta: %w", name, err)
	}

	batches := make([]delta.Batch, 0, len(e.batches)+1)
	batches = append(batches, e.batches...)
	batches = append(batches, b)
	next := &entry{
		c: c, name: name, ready: make(chan struct{}), refs: 1,
		srcPath: e.srcPath, srcMod: e.srcMod,
		base: e.base, dir: e.dir, dbase: base, replay: e.replay,
		baseID: e.baseID,
		ds: &Dataset{
			Name: name, Source: e.ds.Source, Sharded: e.ds.Sharded,
			FromSnapshot: e.ds.FromSnapshot,
		},
	}
	start := time.Now()
	if err := next.applyBatches(base, batches); err != nil {
		return nil, fmt.Errorf("catalog: %s: %w", name, err)
	}
	next.ds.LoadTime = time.Since(start)
	close(next.ready)
	h := c.swapEntry(name, e, next)
	c.notifyApply(name, next, ApplyEvent{Batch: b, Engine: next.overlay})
	return h, nil
}

// Compact folds the named dataset's pending deltas into a fresh base:
// the extended graph is rebuilt as an engine of the base's shard count
// (fresh reachability indexes, re-partitioned at K > 1) and served
// from memory. It is persisted the way the dataset is stored — a new
// `<name>.snap`, or a shard directory replaced atomically — and the
// delta log is deleted. A no-op (returning the current handle) when
// nothing is pending. The caller must Release the returned dataset.
func (c *Catalog) Compact(name string) (*Dataset, error) {
	ds, err := c.Acquire(name)
	if err != nil {
		return nil, err
	}

	dl := c.dlogFor(name)
	dl.mu.Lock()
	defer dl.mu.Unlock()

	e, err := c.currentEntry(name, ds)
	if err != nil {
		ds.Release()
		return nil, err
	}
	if len(e.batches) == 0 {
		return ds, nil // nothing pending; handle stays valid
	}
	defer ds.Release()

	ext := e.overlay.G
	start := time.Now()
	// Commit protocol, crash-recoverable at every step (ResolveFold):
	// (1) marker names the post-fold base, (2) folded base publishes,
	// (3) log removed, (4) marker removed. A crash between (2) and (4)
	// leaves a log whose fingerprint mismatches the published base —
	// normally fatal — but the marker proves the fold committed, so
	// the next load discards the leftovers instead of failing.
	if err := delta.WriteFoldMarker(c.foldMarkerPath(name), delta.BaseOf(ext)); err != nil {
		return nil, fmt.Errorf("catalog: %s: compact: %w", name, err)
	}
	se, err := c.buildBase(ext, e.base.NumShards(), e.base.IndexKind())
	if err != nil {
		return nil, fmt.Errorf("catalog: %s: compact: %w", name, err)
	}
	srcPath, err := c.saveBase(name, se, e.dir)
	if err != nil {
		return nil, fmt.Errorf("catalog: %s: compact: %w", name, err)
	}
	next := &entry{c: c, name: name, ready: make(chan struct{}), refs: 1, srcPath: srcPath}
	if st, err := os.Stat(srcPath); err == nil {
		next.srcMod = st.ModTime()
	}
	next.serve(se, e.dir, true)

	// Steps (3) and (4): the folded base is published, drop the log
	// and then the marker.
	if err := c.dropLog(name, dl); err != nil {
		return nil, fmt.Errorf("catalog: %s: dropping folded delta log: %w", name, err)
	}
	dl.compactions.Add(1)
	next.ds.LoadTime = time.Since(start)
	close(next.ready)
	h := c.swapEntry(name, e, next)
	// Live subscriptions hand over atomically here: the fold is a pure
	// generation advance (same logical graph), delivered in order with
	// the surrounding batches because dl.mu is still held.
	c.notifyApply(name, next, ApplyEvent{Compacted: true})
	return h, nil
}

// saveBase persists a compacted base where the dataset lives and
// returns the path the next load resolves to: `<name>.snap` for a
// dataset stored as a file, and for a shard directory a fresh
// directory written next to the live one and swapped in.
func (c *Catalog) saveBase(name string, se *shard.ShardedEngine, dir bool) (string, error) {
	if !dir {
		snapPath := filepath.Join(c.dir, name+".snap")
		return snapPath, snapshot.SaveFile(snapPath, se.Union(), se.CompositeIndex())
	}
	tmp := filepath.Join(c.dir, "."+name+".compact")
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if _, err := se.Save(tmp, name); err != nil {
		return "", err
	}
	if err := c.swapDir(name, tmp); err != nil {
		return "", err
	}
	return filepath.Join(c.dir, name, shard.ManifestName), nil
}

// swapDir publishes the shard directory staged at tmp as name's: the
// live directory, if any, is renamed aside, tmp renamed in, and the
// aside copy removed. resolve restores the aside copy if a crash
// splits the two renames.
func (c *Catalog) swapDir(name, tmp string) error {
	live, old := filepath.Join(c.dir, name), c.asidePath(name)
	if err := os.RemoveAll(old); err != nil {
		return err
	}
	if err := os.Rename(live, old); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("swap: %w", err)
	}
	if err := os.Rename(tmp, live); err != nil {
		// Try to restore the previous directory before failing.
		os.Rename(old, live)
		return fmt.Errorf("swap: %w", err)
	}
	return os.RemoveAll(old)
}

// asidePath is where swapDir keeps the live shard directory between
// its two renames.
func (c *Catalog) asidePath(name string) string {
	return filepath.Join(c.dir, "."+name+".precompact")
}

// Compactions reports how many times the named dataset's delta log was
// folded into a fresh base by this process.
func (c *Catalog) Compactions(name string) int64 {
	c.mu.Lock()
	dl := c.dlogs[name]
	c.mu.Unlock()
	if dl == nil {
		return 0
	}
	return dl.compactions.Load()
}

// Close flushes and closes every open delta log writer. Engines stay
// usable, so queries can still be answered, but further ApplyDelta
// calls are refused with ErrClosed; Close exists so a graceful
// shutdown can pin every appended batch to disk before the process
// exits.
func (c *Catalog) Close() error {
	c.mu.Lock()
	dls := make([]*dlog, 0, len(c.dlogs))
	for _, dl := range c.dlogs {
		dls = append(dls, dl)
	}
	c.closed = true
	c.signalLocked()
	c.mu.Unlock()
	var first error
	for _, dl := range dls {
		dl.mu.Lock()
		if dl.w != nil {
			if err := dl.w.Close(); err != nil && first == nil {
				first = err
			}
			dl.w = nil
		}
		dl.mu.Unlock()
	}
	return first
}

package catalog

import (
	"errors"
	"fmt"
	"os"
	"sort"

	"gtpq/internal/delta"
	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// Replication support: a primary exposes each dataset's delta log as a
// byte stream (ReadLogChunk) and its frozen base for shipping
// (BaseSnapshot); a replica mirrors the log by re-applying the decoded
// batches through ApplyDelta — the log encoding is deterministic, so
// the replica's local log is byte-identical to the primary's and its
// size doubles as the durable replication offset across restarts.
//
// Lock ordering is the crux. Compaction commits through the fold
// marker protocol while holding the dataset's dlog mutex; ReadLogChunk
// takes the SAME mutex before snapshotting the base fingerprint and
// the log offset, and reads the chunk bytes without releasing it. A
// tailer can therefore never be handed bytes of a log whose fold
// marker is already written but whose base has not published yet: it
// sees the old base with the old log, or the new base with the log
// gone — nothing in between.

// ErrClosed reports an operation against a catalog whose Close already
// ran; servers map it to 503 during shutdown.
var ErrClosed = errors.New("catalog closed")

// ErrShardedBase marks a BaseSnapshot call on a sharded dataset: the
// base of a sharded dataset ships per manifest file (the SHA-256
// hashes in manifest.json verify each one), not as a single snapshot.
var ErrShardedBase = errors.New("sharded dataset: base ships per manifest file")

// LogState is the replication-visible state of one dataset, captured
// atomically with any chunk read.
type LogState struct {
	// Base fingerprints the frozen base the delta log extends; a
	// replica whose local base differs must re-sync before applying.
	Base delta.BaseID
	// Size is the delta log's current byte length (0: no log).
	Size int64
	// Batches counts the pending delta batches applied over the base —
	// the generation delta replicas compute their lag from.
	Batches int
	// Generation is the serving entry's catalog generation.
	Generation uint64
	// Sharded reports a base of K > 1 shards (ships via manifest
	// files); a one-shard directory ships as a snapshot, like a flat
	// file.
	Sharded bool
}

// replBaseID memoizes the delta.BaseOf fingerprint of the entry's
// frozen base (an O(N+M) hash, far too hot to recompute per poll).
// Caller holds the dataset's dlog mutex, like every dbase toucher.
func (e *entry) replBaseID() delta.BaseID {
	if e.baseID == nil {
		id := delta.BaseOf(e.deltaBaseOf().g)
		e.baseID = &id
	}
	return *e.baseID
}

// Changed returns a channel that is closed at the next commit that can
// move a dataset's LogState: the swap of ApplyDelta or Compact, a hot
// reload, or Close. It is one channel for every dataset, so a waiter
// re-reads its own dataset's state when woken. Take the channel before
// reading the state it guards, or a commit in between goes unseen.
func (c *Catalog) Changed() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.changed
}

// signalLocked wakes every Changed waiter; caller holds c.mu.
func (c *Catalog) signalLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// ReadLogChunk returns up to max bytes of the named dataset's delta
// log starting at byte offset from, plus the log state observed
// atomically with the read (under the dataset's compaction lock — see
// the package comment above for why that ordering is load-bearing).
// A from at or past the end returns an empty chunk with the current
// state; callers long-poll by re-calling once Changed fires. max <= 0
// reads state only.
func (c *Catalog) ReadLogChunk(name string, from int64, max int) ([]byte, LogState, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		chunk, st, err := c.readLogChunkOnce(name, from, max)
		if err == nil || !isEntryRaced(err) {
			return chunk, st, err
		}
		lastErr = err
	}
	return nil, LogState{}, lastErr
}

func (c *Catalog) readLogChunkOnce(name string, from int64, max int) ([]byte, LogState, error) {
	ds, err := c.Acquire(name)
	if err != nil {
		return nil, LogState{}, err
	}
	defer ds.Release()

	dl := c.dlogFor(name)
	dl.mu.Lock()
	defer dl.mu.Unlock()

	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, LogState{}, ErrClosed
	}
	e, err := c.currentEntry(name, ds)
	if err != nil {
		return nil, LogState{}, err
	}
	state := LogState{
		Base:       e.replBaseID(),
		Batches:    len(e.batches),
		Generation: e.gen,
		Sharded:    e.ds.Sharded,
	}
	st, err := os.Stat(c.logPath(name))
	if os.IsNotExist(err) {
		return nil, state, nil
	}
	if err != nil {
		return nil, LogState{}, err
	}
	state.Size = st.Size()
	if max <= 0 || from < 0 || from >= state.Size {
		return nil, state, nil
	}
	want := state.Size - from
	if int64(max) < want {
		want = int64(max)
	}
	f, err := os.Open(c.logPath(name))
	if err != nil {
		return nil, LogState{}, err
	}
	defer f.Close()
	buf := make([]byte, want)
	n, err := f.ReadAt(buf, from)
	if err != nil && n == 0 {
		return nil, LogState{}, fmt.Errorf("catalog: %s: reading log chunk: %w", name, err)
	}
	return buf[:n], state, nil
}

// BaseSnapshot returns the named dataset's frozen base graph and
// reachability index for shipping to a replica, plus the log state at
// capture time. The pair is immutable — callers serialize it outside
// any catalog lock. Sharded datasets return ErrShardedBase; their base
// ships per manifest file instead.
func (c *Catalog) BaseSnapshot(name string) (*graph.Graph, reach.ContourIndex, LogState, error) {
	ds, err := c.Acquire(name)
	if err != nil {
		return nil, nil, LogState{}, err
	}
	defer ds.Release()

	dl := c.dlogFor(name)
	dl.mu.Lock()
	defer dl.mu.Unlock()

	e, err := c.currentEntry(name, ds)
	if err != nil {
		return nil, nil, LogState{}, err
	}
	if e.ds.Sharded {
		return nil, nil, LogState{}, fmt.Errorf("catalog: %s: %w", name, ErrShardedBase)
	}
	base := e.deltaBaseOf()
	state := LogState{
		Base:       e.replBaseID(),
		Batches:    len(e.batches),
		Generation: e.gen,
	}
	if st, serr := os.Stat(c.logPath(name)); serr == nil {
		state.Size = st.Size()
	}
	return base.g, base.h, state, nil
}

// DropLog closes the named dataset's delta log writer and removes the
// log and fold marker files. Replica re-sync calls it before
// installing a shipped base: the old log belongs to the old base and
// must never replay over the new one, and the open writer must not
// keep appending into an unlinked inode.
func (c *Catalog) DropLog(name string) error {
	dl := c.dlogFor(name)
	dl.mu.Lock()
	defer dl.mu.Unlock()
	if dl.w != nil {
		dl.w.Close()
		dl.w = nil
	}
	if err := os.Remove(c.logPath(name)); err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := os.Remove(c.foldMarkerPath(name)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Loading lists the datasets whose load — build, snapshot revival, or
// delta replay — is currently in flight, sorted. Readiness probes
// (/readyz) report not-ready while any dataset is loading.
func (c *Catalog) Loading() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var names []string
	for name, e := range c.entries {
		if e == nil || e.stale {
			continue
		}
		select {
		case <-e.ready:
		default:
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

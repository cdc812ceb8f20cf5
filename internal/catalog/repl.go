package catalog

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"gtpq/internal/atomicfile"
	"gtpq/internal/delta"
	"gtpq/internal/shard"
)

// Replication support: a primary exposes each dataset's delta log as a
// byte stream (ReadLogChunk) and its frozen base as the files it
// stores (ReadBase); a replica installs those files (InstallBase) and
// mirrors the log by re-applying the decoded batches through
// ApplyDelta — the log encoding is deterministic, so the replica's
// local log is byte-identical to the primary's and its size doubles as
// the durable replication offset across restarts. The catalog is the
// one owner of a dataset's files: both ends read and write them here.
//
// Lock ordering is the crux. Compaction commits through the fold
// marker protocol while holding the dataset's dlog mutex; ReadLogChunk
// and ReadBase take the SAME mutex before snapshotting the base
// fingerprint and the log offset, and read the bytes without releasing
// it. A tailer can therefore never be handed bytes of a log whose fold
// marker is already written but whose base has not published yet: it
// sees the old base with the old log, or the new base with the log
// gone — nothing in between.

// ErrClosed reports an operation against a catalog whose Close already
// ran; servers map it to 503 during shutdown.
var ErrClosed = errors.New("catalog closed")

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

// underLog runs f on the named dataset's current entry while holding
// the dataset's dlog mutex — the lock Compact and ApplyDelta commit
// under — retrying when a hot reload supersedes the entry in between.
func (c *Catalog) underLog(name string, f func(e *entry) error) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = c.underLogOnce(name, f); err == nil || !isEntryRaced(err) {
			return err
		}
	}
	return err
}

func (c *Catalog) underLogOnce(name string, f func(e *entry) error) error {
	ds, err := c.Acquire(name)
	if err != nil {
		return err
	}
	defer ds.Release()

	dl := c.dlogFor(name)
	dl.mu.Lock()
	defer dl.mu.Unlock()

	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	e, err := c.currentEntry(name, ds)
	if err != nil {
		return err
	}
	return f(e)
}

// logState reads e's replication state; the caller holds the
// dataset's dlog mutex.
func (c *Catalog) logState(e *entry) (LogState, error) {
	state := LogState{Base: e.replBaseID(), Batches: len(e.batches), Generation: e.gen}
	st, err := os.Stat(c.logPath(e.name))
	if os.IsNotExist(err) {
		return state, nil
	}
	if err != nil {
		return LogState{}, err
	}
	state.Size = st.Size()
	return state, nil
}

// ReadLogChunk returns up to max bytes of the named dataset's delta
// log starting at byte offset from, plus the log state observed
// atomically with the read (under the dataset's compaction lock — see
// the package comment above for why that ordering is load-bearing).
// A from at or past the end returns an empty chunk with the current
// state; callers long-poll by re-calling once Changed fires. max <= 0
// reads state only.
func (c *Catalog) ReadLogChunk(name string, from int64, max int) (chunk []byte, state LogState, err error) {
	err = c.underLog(name, func(e *entry) error {
		if state, err = c.logState(e); err != nil || max <= 0 || from < 0 || from >= state.Size {
			return err
		}
		f, err := os.Open(c.logPath(name))
		if err != nil {
			return err
		}
		defer f.Close()
		chunk = make([]byte, min(int64(max), state.Size-from))
		n, err := f.ReadAt(chunk, from)
		if err != nil && n == 0 {
			return fmt.Errorf("catalog: %s: reading log chunk: %w", name, err)
		}
		chunk = chunk[:n]
		return nil
	})
	if err != nil {
		return nil, LogState{}, err
	}
	return chunk, state, nil
}

// ReadBase returns the named dataset's base as the catalog stores it,
// for a replica to install with InstallBase, plus the log state
// captured under the same lock. With file empty it reads the file the
// serving base was loaded from or compacted to — `<name>.snap`,
// `<name>.json[.gz]` or a shard directory's manifest.json — and
// returns that file's name; otherwise it reads the named file of the
// shard directory. A base file that does not exist is reported as
// fs.ErrNotExist.
func (c *Catalog) ReadBase(name, file string) (data []byte, root string, state LogState, err error) {
	err = c.underLog(name, func(e *entry) error {
		path := e.srcPath
		if file != "" {
			if !e.dir || !plainName(file) {
				return fmt.Errorf("catalog: %s: no base file %q: %w", name, file, fs.ErrNotExist)
			}
			path = filepath.Join(filepath.Dir(e.srcPath), file)
		}
		if data, err = os.ReadFile(path); err != nil {
			return err
		}
		root = filepath.Base(path)
		state, err = c.logState(e)
		return err
	})
	if err != nil {
		return nil, "", LogState{}, err
	}
	return data, root, state, nil
}

// InstallBase replaces the named dataset's stored base with one that
// ReadBase returned on another catalog: root is the file name data
// holds, and fetch returns any other file a shard manifest lists. Root
// is network input, so anything but `<name>.snap`, `<name>.json`,
// `<name>.json.gz` or manifest.json is refused before a byte is
// written. A manifest's files are fetched into a staging directory
// and checked against its SHA-256 hashes first. Then, under the
// dataset's dlog mutex, the local delta log and fold marker are
// dropped, every other stored form of the dataset is removed, the base
// is published — a file atomically, a directory by the same swap a
// compaction uses — and the dataset is marked for reload.
func (c *Catalog) InstallBase(name, root string, data []byte, fetch func(file string) ([]byte, error)) error {
	if !plainName(name) {
		return fmt.Errorf("catalog: invalid dataset name %q", name)
	}
	live, stage := filepath.Join(c.dir, root), filepath.Join(c.dir, "."+name+".ship")
	switch {
	case root == shard.ManifestName:
		live = filepath.Join(c.dir, name)
		defer os.RemoveAll(stage)
		if err := stageShards(name, stage, data, fetch); err != nil {
			return fmt.Errorf("catalog: %s: shipped base: %w", name, err)
		}
	case !slices.Contains(suffixes, strings.TrimPrefix(root, name)): // not <name><suffix>
		return fmt.Errorf("catalog: %s: refusing shipped base file %q", name, root)
	}

	dl := c.dlogFor(name)
	dl.mu.Lock()
	defer dl.mu.Unlock()
	// The log belongs to the base being replaced: it goes before any
	// file of the new base is visible, so it can never replay over it.
	if err := c.dropLog(name, dl); err != nil {
		return err
	}
	others := []string{filepath.Join(c.dir, name), c.asidePath(name)}
	for _, suf := range suffixes {
		others = append(others, filepath.Join(c.dir, name+suf))
	}
	for _, p := range others {
		if p != live {
			if err := os.RemoveAll(p); err != nil {
				return err
			}
		}
	}
	var err error
	if root == shard.ManifestName {
		err = c.swapDir(name, stage)
	} else {
		err = atomicfile.WriteFile(live, data)
	}
	if err != nil {
		return fmt.Errorf("catalog: %s: installing base: %w", name, err)
	}
	c.Reload(name)
	return nil
}

// stageShards writes a shipped shard directory into stage: the
// manifest, then each file it lists once its bytes match the
// manifest's SHA-256 — the integrity root shard.LoadDir enforces.
func stageShards(name, stage string, manifest []byte, fetch func(string) ([]byte, error)) error {
	if err := os.RemoveAll(stage); err != nil {
		return err
	}
	if err := os.Mkdir(stage, 0o755); err != nil {
		return err
	}
	manPath := filepath.Join(stage, shard.ManifestName)
	if err := atomicfile.WriteFile(manPath, manifest); err != nil {
		return err
	}
	man, err := shard.ReadManifest(manPath)
	if err != nil {
		return err
	}
	if man.Name != name {
		return fmt.Errorf("manifest names dataset %q", man.Name)
	}
	for i, sf := range man.Shards {
		for _, f := range [][2]string{{sf.Snap, sf.SnapSHA256}, {sf.IDs, sf.IDsSHA256}} {
			blob, err := fetch(f[0])
			if err == nil {
				err = shard.VerifySHA256(blob, f[1])
			}
			if err == nil {
				err = atomicfile.WriteFile(filepath.Join(stage, f[0]), blob)
			}
			if err != nil {
				return fmt.Errorf("shard %d: %s: %w", i, f[0], err)
			}
		}
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

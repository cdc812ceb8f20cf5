// Package catalog manages named datasets on disk for the serving
// subsystem: a directory of graph files (`<name>.json`,
// `<name>.json.gz`) and index snapshots (`<name>.snap`). Engines are
// built or loaded lazily on first use, cached, and shared with
// ref-counting; a changed source file (or an explicit Reload) hot-swaps
// the dataset — in-flight users keep the engine they acquired, new
// acquisitions get the fresh one.
//
// Snapshots make cold starts cheap: when `<name>.snap` exists and is
// at least as new as the source graph, the engine is revived from it
// with zero index-construction work; with AutoSnapshot set, the
// catalog writes one the first time it has to build an index from raw
// JSON.
//
// A subdirectory `<name>/` holding a shard manifest (`manifest.json`,
// see internal/shard) is a sharded dataset: the catalog verifies the
// manifest's content hashes, revives every shard from its snapshot,
// and serves a scatter-gather engine under the same name — queries hit
// it exactly like a flat dataset. A sharded directory takes precedence
// over flat files of the same name.
//
// Every loaded base is one shape in memory: a *shard.ShardedEngine. A
// `.snap` or JSON file is a one-shard engine over the graph and index
// it loaded, with no copy. A one-shard base — flat file or one-shard
// directory — is queried through its shard's own gtea.Engine, so only
// a base of K > 1 shards scatters.
package catalog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gtpq/internal/card"
	"gtpq/internal/core"
	"gtpq/internal/delta"
	"gtpq/internal/graph"
	"gtpq/internal/graphio"
	"gtpq/internal/gtea"
	"gtpq/internal/reach"
	"gtpq/internal/shard"
	"gtpq/internal/snapshot"
)

// Options tune how the catalog builds engines.
type Options struct {
	// Index names the reachability backend used when building from raw
	// graph JSON (empty: the default 3-hop index); Open refuses a kind
	// outside reach.Kinds. Snapshots carry their own backend and win
	// over this setting.
	Index string
	// AutoSnapshot writes `<name>.snap` after an index is built from a
	// raw graph file, so the next cold start skips construction.
	AutoSnapshot bool
	// NoPlan disables the planner's kernel rule in every engine the
	// catalog builds or revives (gtea.Options.NoPlan).
	NoPlan bool
}

// Engine is the evaluation surface a dataset exposes: a single-graph
// gtea.Engine (one shard, or pending deltas) or the scatter-gather
// shard.ShardedEngine (K > 1 shards). Both are immutable and safe for
// concurrent use.
type Engine interface {
	EvalStatsCtx(ctx context.Context, q *core.Query) (*core.Answer, gtea.Stats, error)
	// EvalCursor returns a pull-based cursor over the canonical-order
	// results instead of a materialized answer; the streaming result
	// path (NDJSON responses, pagination) drains it row by row.
	EvalCursor(ctx context.Context, q *core.Query) (gtea.Cursor, gtea.Stats, error)
	// LabelCount answers how many logical vertices carry a label —
	// exactly, from the evaluation graphs' label indexes; Dataset.Card
	// prices queries with it.
	LabelCount(label string) int
	IndexKind() string
	IndexSize() int
}

// Dataset is one acquired dataset: a ready engine. It stays valid
// until Release, even across a hot reload.
type Dataset struct {
	Name   string
	Source string // file the engine came from
	Engine Engine
	// Sharded reports a base of more than one shard: Engine fans out
	// across shard engines until the first delta, and a flat overlay
	// engine over the union graph serves while deltas are pending.
	Sharded bool
	// FromSnapshot reports whether the engine was loaded from a
	// snapshot rather than from a graph file. A version-2 snapshot
	// revives its index with no construction; a version-1 one is
	// loaded from the snapshot but builds its index from its graph.
	// Shard directories always load from their per-shard snapshots.
	FromSnapshot bool
	// Generation identifies this load of the dataset: it is unique per
	// catalog entry and strictly increases every time any dataset is
	// (re)loaded, so a hot reload, re-shard, or applied delta always
	// changes it. Result caches key on it — entries of an old
	// generation can never serve a new one.
	Generation uint64
	// PendingDeltas counts the mutations (vertex + edge adds) applied
	// on top of the frozen base since its last snapshot/compaction;
	// DeltaBatches the update batches they arrived in. Both are zero
	// for a fully-compacted dataset.
	PendingDeltas int
	DeltaBatches  int
	// Card prices queries against Engine's own label counts and the
	// logical node count (see priceFromEngine); the server reads it
	// before admission.
	Card *card.Stats
	// LoadTime is how long the build or revive took.
	LoadTime time.Duration

	nodes, edges int // logical graph size, pending deltas included
	entry        *entry
	releaseOnce  sync.Once
}

// Nodes returns the logical node count, pending deltas included.
func (d *Dataset) Nodes() int { return d.nodes }

// Edges returns the logical edge count, pending deltas included.
func (d *Dataset) Edges() int { return d.edges }

// priceFromEngine derives Card from the served engine — flat, delta
// overlay, sharded or composite alike — so admission and the planner
// read the same counts. Every entry passes through it once, before it
// is published (end of load, swapEntry).
func (d *Dataset) priceFromEngine() {
	d.Card = &card.Stats{Nodes: d.Nodes(), LabelCount: d.Engine.LabelCount}
}

// Release returns the dataset to the catalog; callers must not use it
// afterwards. Release is idempotent.
func (d *Dataset) Release() {
	d.releaseOnce.Do(func() { d.entry.release() })
}

// ShardInfo is one shard's size and cumulative serving counters in a
// listing.
type ShardInfo struct {
	Nodes      int     `json:"nodes"`
	Edges      int     `json:"edges"`
	Evals      int64   `json:"evals"`
	EvalMillis float64 `json:"eval_ms"`
}

// Info describes one dataset for listings (GET /datasets).
type Info struct {
	Name         string `json:"name"`
	Source       string `json:"source"`
	Loaded       bool   `json:"loaded"`
	Refs         int    `json:"refs,omitempty"`
	Nodes        int    `json:"nodes,omitempty"`
	Edges        int    `json:"edges,omitempty"`
	IndexKind    string `json:"index_kind,omitempty"`
	IndexSize    int    `json:"index_size,omitempty"`
	FromSnapshot bool   `json:"from_snapshot,omitempty"`
	// Generation is the loaded entry's hot-reload generation (0 when
	// not loaded) — the value result-cache keys carry.
	Generation uint64 `json:"generation,omitempty"`
	LoadMillis int64  `json:"load_ms,omitempty"`
	// Shards is the shard count of a dataset stored as K > 1 shards (0
	// for a flat file or a one-shard directory); ShardInfo the
	// per-shard sizes and timings once loaded. Both describe the base,
	// so they stay while deltas are pending.
	Shards    int         `json:"shards,omitempty"`
	ShardInfo []ShardInfo `json:"shard_info,omitempty"`
	// PendingDeltas / DeltaBatches mirror Dataset's delta counters;
	// Compactions counts folds of the delta log into a fresh base this
	// process performed, and DeltaReplayMillis is the time the load
	// spent replaying the delta log.
	PendingDeltas     int   `json:"pending_deltas,omitempty"`
	DeltaBatches      int   `json:"delta_batches,omitempty"`
	Compactions       int64 `json:"compactions,omitempty"`
	DeltaReplayMillis int64 `json:"delta_replay_ms,omitempty"`
}

// Catalog serves datasets out of one directory.
type Catalog struct {
	dir string
	opt Options

	mu      sync.Mutex
	entries map[string]*entry
	nextGen uint64 // generation counter; ++ per entry created (under mu)
	dlogs   map[string]*dlog
	closed  bool
	// changed is closed and replaced at every commit that can move a
	// dataset's LogState (see Changed).
	changed chan struct{}

	// applyHook, when set, observes every mutation swap (see hook.go).
	applyHook func(ApplyEvent)

	// loads counts disk loads started (builds, revivals, shard dirs);
	// reloads counts entries marked stale (source change or explicit
	// Reload). Both feed the metrics registry (see metrics.go).
	loads   atomic.Int64
	reloads atomic.Int64
}

// entry is the cached (or in-flight) load of one dataset generation.
// ready is closed when ds/err are final; refs counts Acquire minus
// Release plus one for the cache itself while the entry is current.
type entry struct {
	c     *Catalog
	name  string
	ready chan struct{}
	ds    *Dataset
	err   error
	refs  int
	stale bool
	gen   uint64 // this load's generation (see Dataset.Generation)
	// srcPath/srcMod identify the file generation this entry was
	// loaded from; a differing mtime on Acquire marks the entry stale.
	srcPath string
	srcMod  time.Time

	// Delta state (see delta.go). base is the frozen engine the
	// dataset loaded or compacted to; every generation until the next
	// compaction shares it. dir records that it came from (and
	// compacts back to) a shard directory. dbase is base's logical
	// graph and reachability index — what ApplyDelta extends and
	// Compact folds into — filled on first need (see deltaBaseOf).
	// batches are the pending mutations, replayed from the log at load
	// or appended in memory by ApplyDelta; overlay is the engine
	// serving base ∪ batches (nil while none are pending).
	base    *shard.ShardedEngine
	dir     bool
	dbase   *deltaBase
	batches []delta.Batch
	overlay *gtea.Engine
	replay  time.Duration
	// baseID memoizes delta.BaseOf(dbase.g) for the replication
	// handlers (repl.go); filled and read under the dlog mutex, carried
	// across delta swaps because the base is unchanged.
	baseID *delta.BaseID
}

// deltaBase is the frozen foundation live updates extend.
type deltaBase struct {
	g *graph.Graph
	h reach.ContourIndex
}

func (e *entry) release() {
	e.c.mu.Lock()
	defer e.c.mu.Unlock()
	e.refs--
}

// Open returns a catalog over dir. The directory must exist; datasets
// appearing in it later are picked up without reopening.
func Open(dir string, opt Options) (*Catalog, error) {
	st, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("catalog: %v", err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("catalog: %s is not a directory", dir)
	}
	if opt.Index != "" && !slices.Contains(reach.Kinds(), opt.Index) {
		return nil, fmt.Errorf("catalog: unknown index kind %q (available: %v)", opt.Index, reach.Kinds())
	}
	return &Catalog{dir: dir, opt: opt, entries: map[string]*entry{}, dlogs: map[string]*dlog{}, changed: make(chan struct{})}, nil
}

// ErrUnknownDataset reports a dataset name with no source on disk;
// servers map it to 404 (errors.Is through Acquire's error).
var ErrUnknownDataset = errors.New("unknown dataset")

// suffixes are the recognized dataset file extensions, in resolution
// preference order (snapshot first).
var suffixes = []string{".snap", ".json.gz", ".json"}

// loadKind says how a resolved dataset source is loaded.
type loadKind int

const (
	loadRaw   loadKind = iota // graphio JSON, index built
	loadSnap                  // single snapshot, index revived
	loadShard                 // shard directory of K >= 1 shards
)

// Names lists the dataset names present on disk, sorted: flat graph /
// snapshot files plus subdirectories holding a shard manifest.
func (c *Catalog) Names() ([]string, error) {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, fmt.Errorf("catalog: %v", err)
	}
	seen := map[string]bool{}
	var names []string
	add := func(name string) {
		if name != "" && !strings.HasPrefix(name, ".") && !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	for _, de := range des {
		if de.IsDir() {
			if _, err := os.Stat(filepath.Join(c.dir, de.Name(), shard.ManifestName)); err == nil {
				add(de.Name())
			}
			continue
		}
		if strings.HasSuffix(de.Name(), ".stats.json") {
			// A cardinality sidecar that older binaries wrote next to
			// each dataset, not a dataset (".json" is a dataset suffix).
			continue
		}
		for _, suf := range suffixes {
			if strings.HasSuffix(de.Name(), suf) {
				add(strings.TrimSuffix(de.Name(), suf))
				break
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// plainName reports whether s names an entry of a directory: no path
// separator, not hidden, not empty.
func plainName(s string) bool {
	return s == filepath.Base(s) && !strings.HasPrefix(s, ".")
}

// resolve picks the source to load name from: a sharded directory's
// manifest when one exists (sharding wins — the directory supersedes
// any flat file left behind), otherwise the snapshot when it is at
// least as new as the raw graph (or the only candidate), the raw graph
// otherwise.
func (c *Catalog) resolve(name string) (path string, mod time.Time, kind loadKind, err error) {
	if !plainName(name) {
		return "", time.Time{}, loadRaw, fmt.Errorf("catalog: invalid dataset name %q", name)
	}
	if mpath := filepath.Join(c.dir, name, shard.ManifestName); true {
		if st, err := os.Stat(mpath); err == nil {
			return mpath, st.ModTime(), loadShard, nil
		}
		// Crash recovery for sharded compaction's directory swap: a
		// crash between "rename live dir aside" and "rename folded dir
		// in" leaves only the aside copy. Restore it — idempotent and
		// race-tolerant (a concurrent restorer winning the rename just
		// makes ours fail; the re-stat below settles it).
		aside := c.asidePath(name)
		if _, err := os.Stat(filepath.Join(aside, shard.ManifestName)); err == nil {
			os.Rename(aside, filepath.Join(c.dir, name))
			if st, err := os.Stat(mpath); err == nil {
				return mpath, st.ModTime(), loadShard, nil
			}
		}
	}
	var snapPath, rawPath string
	var snapMod, rawMod time.Time
	for _, suf := range suffixes {
		p := filepath.Join(c.dir, name+suf)
		st, err := os.Stat(p)
		if err != nil {
			continue
		}
		if suf == ".snap" {
			snapPath, snapMod = p, st.ModTime()
		} else if rawPath == "" {
			rawPath, rawMod = p, st.ModTime()
		}
	}
	switch {
	case snapPath != "" && (rawPath == "" || !snapMod.Before(rawMod)):
		return snapPath, snapMod, loadSnap, nil
	case rawPath != "":
		return rawPath, rawMod, loadRaw, nil
	default:
		return "", time.Time{}, loadRaw, fmt.Errorf("catalog: %w %q", ErrUnknownDataset, name)
	}
}

// Acquire returns the named dataset, loading it on first use. The
// caller must Release it. Concurrent Acquires of the same dataset
// share one load; a source file newer than the cached engine triggers
// a hot reload for new acquirers.
func (c *Catalog) Acquire(name string) (*Dataset, error) {
	path, mod, kind, rerr := c.resolve(name)

	c.mu.Lock()
	e := c.entries[name]
	if e != nil && !e.stale {
		select {
		case <-e.ready:
			// Loaded: hot-reload check against the current source file.
			if rerr == nil && (e.srcPath != path || !e.srcMod.Equal(mod)) {
				e.stale = true
				e.refs-- // drop the cache's own reference
				c.reloads.Add(1)
				c.signalLocked()
			}
		default:
			// Load in flight: join it regardless of on-disk changes.
		}
	}
	if e == nil || e.stale {
		if rerr != nil {
			c.mu.Unlock()
			return nil, rerr
		}
		c.nextGen++
		e = &entry{c: c, name: name, ready: make(chan struct{}), refs: 1, srcPath: path, srcMod: mod, gen: c.nextGen}
		c.entries[name] = e
		go e.load(kind)
	}
	e.refs++
	c.mu.Unlock()

	<-e.ready
	if e.err != nil {
		c.mu.Lock()
		e.refs--
		if c.entries[name] == e {
			delete(c.entries, name) // failed loads are not cached
		}
		c.mu.Unlock()
		return nil, e.err
	}
	return e.handle(), nil
}

// handle hands out a per-acquire view of the entry's dataset, so
// Release is idempotent per caller while all handles share the
// engine. The caller must already hold a reference (refs).
func (e *entry) handle() *Dataset {
	return &Dataset{
		Name:          e.ds.Name,
		Source:        e.ds.Source,
		Engine:        e.ds.Engine,
		Sharded:       e.ds.Sharded,
		FromSnapshot:  e.ds.FromSnapshot,
		Generation:    e.gen,
		PendingDeltas: delta.Ops(e.batches),
		DeltaBatches:  len(e.batches),
		Card:          e.ds.Card,
		LoadTime:      e.ds.LoadTime,
		nodes:         e.ds.nodes,
		edges:         e.ds.edges,
		entry:         e,
	}
}

// load builds or revives the entry's engine; it runs once per entry.
// After the base is up, any delta log next to it is replayed and the
// pending batches are layered on as an overlay engine (see delta.go).
func (e *entry) load(kind loadKind) {
	defer close(e.ready)
	e.c.loads.Add(1)
	start := time.Now()
	se, err := e.loadBase(kind)
	if err != nil {
		e.err = err
		return
	}
	e.serve(se, kind == loadShard, kind != loadRaw)
	if kind == loadRaw && e.c.opt.AutoSnapshot {
		// Best effort; serving works without it. The snapshot is
		// stamped no newer than the source so resolve keeps
		// preferring fresher raw files, and the entry's identity
		// moves to the snapshot — resolve will return it from now
		// on, and without this the next Acquire would mistake the
		// path change for a source update and throw the just-built
		// engine away. The snapshot always holds the BASE graph and
		// index; pending deltas stay in the log.
		snapPath := filepath.Join(e.c.dir, e.name+".snap")
		if err := snapshot.SaveFile(snapPath, se.Union(), se.CompositeIndex()); err == nil {
			if err := os.Chtimes(snapPath, e.srcMod, e.srcMod); err == nil {
				e.srcPath = snapPath // published by close(e.ready)
			}
		}
	}
	if err := e.replayDeltas(); err != nil {
		e.err = err
		e.ds = nil
	} else {
		e.ds.priceFromEngine()
		e.ds.LoadTime = time.Since(start)
	}
}

// loadBase reads the entry's source into its base engine: a shard
// directory as its K shards, a snapshot or JSON graph as one shard.
func (e *entry) loadBase(kind loadKind) (*shard.ShardedEngine, error) {
	switch kind {
	case loadShard:
		se, man, err := shard.LoadDir(filepath.Dir(e.srcPath), shard.Options{NoPlan: e.c.opt.NoPlan})
		if err != nil {
			return nil, err
		}
		if man.Name != e.name {
			return nil, fmt.Errorf("catalog: %s names dataset %q, directory says %q", e.srcPath, man.Name, e.name)
		}
		return se, nil
	case loadSnap:
		g, h, err := snapshot.LoadFile(e.srcPath)
		if err != nil {
			return nil, err
		}
		return shard.Single(g, h, shard.Options{NoPlan: e.c.opt.NoPlan}), nil
	}
	f, err := os.Open(e.srcPath)
	if err != nil {
		return nil, err
	}
	g, err := graphio.Load(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.srcPath, err)
	}
	se, err := e.c.buildBase(g, 1, e.c.opt.Index)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.srcPath, err)
	}
	return se, nil
}

// buildBase builds a base engine over g: g itself as the one shard at
// k=1, k whole-component shards otherwise, each with a fresh index of
// the named backend.
func (c *Catalog) buildBase(g *graph.Graph, k int, kind string) (*shard.ShardedEngine, error) {
	opt := shard.Options{Index: kind, NoPlan: c.opt.NoPlan}
	if k > 1 {
		plan, err := shard.Partition(g, k, shard.ModeWCC)
		if err != nil {
			return nil, err
		}
		return shard.NewEngine(g, plan, opt)
	}
	h, err := reach.Build(kind, g)
	if err != nil {
		return nil, err
	}
	return shard.Single(g, h, opt), nil
}

// serve makes se the entry's base and publishes the dataset serving
// it: through the one shard's own engine, or scatter-gather at K > 1.
func (e *entry) serve(se *shard.ShardedEngine, dir, fromSnapshot bool) {
	e.base, e.dir = se, dir
	var eng Engine = se
	if flat := se.Flat(); flat != nil {
		eng = flat
	}
	e.ds = &Dataset{
		Name: e.name, Source: e.srcPath, Engine: eng,
		Sharded: se.NumShards() > 1, FromSnapshot: fromSnapshot,
		nodes: se.TotalNodes(), edges: se.TotalEdges(),
	}
}

// Reload marks the named dataset stale: current holders keep their
// engine, the next Acquire loads fresh.
func (c *Catalog) Reload(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[name]; e != nil && !e.stale {
		e.stale = true
		c.reloads.Add(1)
		c.signalLocked()
		select {
		case <-e.ready:
			e.refs-- // drop the cache's own reference
		default:
			// In-flight load: it keeps its cache reference until the
			// next Acquire notices the staleness.
		}
	}
}

// List describes every dataset on disk, merged with cache state.
func (c *Catalog) List() ([]Info, error) {
	names, err := c.Names()
	if err != nil {
		return nil, err
	}
	infos := make([]Info, 0, len(names))
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, name := range names {
		info := Info{Name: name}
		var manifestPath string // set for a shard directory
		if path, _, kind, err := c.resolve(name); err == nil {
			info.Source = filepath.Base(path)
			if kind == loadShard {
				info.Source = filepath.Join(name, shard.ManifestName)
				manifestPath = path
			}
		}
		if e := c.entries[name]; e != nil && !e.stale {
			select {
			case <-e.ready:
				if e.err == nil {
					info.Loaded = true
					info.Refs = e.refs - 1 // exclude the cache's own reference
					info.Nodes = e.ds.Nodes()
					info.Edges = e.ds.Edges()
					info.IndexKind = e.ds.Engine.IndexKind()
					info.IndexSize = e.ds.Engine.IndexSize()
					info.FromSnapshot = e.ds.FromSnapshot
					info.Generation = e.gen
					info.LoadMillis = e.ds.LoadTime.Milliseconds()
					info.PendingDeltas = delta.Ops(e.batches)
					info.DeltaBatches = len(e.batches)
					info.DeltaReplayMillis = e.replay.Milliseconds()
					if e.ds.Sharded {
						info.Shards = e.base.NumShards()
						for _, st := range e.base.ShardStats() {
							info.ShardInfo = append(info.ShardInfo, ShardInfo{
								Nodes: st.Nodes, Edges: st.Edges, Evals: st.Evals,
								EvalMillis: float64(st.EvalTime.Microseconds()) / 1000,
							})
						}
					}
				}
			default:
			}
		}
		if dl := c.dlogs[name]; dl != nil {
			info.Compactions = dl.compactions.Load()
		}
		if manifestPath != "" && !info.Loaded {
			// Not loaded yet: the shard count comes from the manifest
			// (listings must not trigger loads). Loaded entries filled
			// it from the engine above, skipping this disk read.
			if man, err := shard.ReadManifest(manifestPath); err == nil && len(man.Shards) > 1 {
				info.Shards = len(man.Shards)
			}
		}
		infos = append(infos, info)
	}
	return infos, nil
}

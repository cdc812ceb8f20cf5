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
package catalog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	// graph JSON (empty: the default 3-hop index). Snapshots carry
	// their own backend and win over this setting.
	Index string
	// Parallel builds indexes with multiple goroutines.
	Parallel bool
	// AutoSnapshot writes `<name>.snap` after an index is built from a
	// raw graph file, so the next cold start skips construction.
	AutoSnapshot bool
	// ShardWorkers bounds the scatter-gather fan-out of sharded
	// datasets (default GOMAXPROCS).
	ShardWorkers int
	// NoPlan disables the cost-based query planner in every engine the
	// catalog builds or revives (gtea.Options.NoPlan).
	NoPlan bool
}

// Engine is the evaluation surface a dataset exposes: the single-graph
// gtea.Engine or the scatter-gather shard.ShardedEngine. Both are
// immutable and safe for concurrent use.
type Engine interface {
	Eval(q *core.Query) *core.Answer
	EvalStatsCtx(ctx context.Context, q *core.Query) (*core.Answer, gtea.Stats, error)
	// EvalCursor returns a pull-based cursor over the canonical-order
	// results instead of a materialized answer; the streaming result
	// path (NDJSON responses, pagination) drains it row by row.
	EvalCursor(ctx context.Context, q *core.Query) (gtea.Cursor, gtea.Stats, error)
	// LabelCount answers how many logical vertices carry a label —
	// exactly, from the served index or shard histograms; Dataset.Card
	// prices queries with it.
	LabelCount(label string) int
	IndexKind() string
	IndexSize() int
}

// Dataset is one acquired dataset: a ready engine (plus the graph, for
// flat datasets). It stays valid until Release, even across a hot
// reload.
type Dataset struct {
	Name   string
	Source string // file the engine came from
	// Graph is the data graph of a flat dataset; nil when Sharded (the
	// logical graph exists only as the union of the shard subgraphs).
	Graph  *graph.Graph
	Engine Engine
	// Sharded reports whether Engine fans out across shard engines.
	Sharded bool
	// FromSnapshot reports whether the engine was revived from a
	// snapshot (no index construction) rather than built. Sharded
	// datasets always revive from their per-shard snapshots.
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

	entry       *entry
	releaseOnce sync.Once
}

// Nodes returns the logical node count (flat graph or sharded total).
func (d *Dataset) Nodes() int {
	if d.Graph != nil {
		return d.Graph.N()
	}
	if se, ok := d.Engine.(*shard.ShardedEngine); ok {
		return se.TotalNodes()
	}
	return 0
}

// Edges returns the logical edge count (flat graph or sharded total).
func (d *Dataset) Edges() int {
	if d.Graph != nil {
		return d.Graph.M()
	}
	if se, ok := d.Engine.(*shard.ShardedEngine); ok {
		return se.TotalEdges()
	}
	return 0
}

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
	// Shards is the shard count of a sharded dataset (0 for flat);
	// ShardMode its partitioning mode and ShardInfo the per-shard
	// sizes and timings once loaded.
	Shards    int         `json:"shards,omitempty"`
	ShardMode string      `json:"shard_mode,omitempty"`
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

	// Delta state (see delta.go). dbase is the frozen pre-delta graph
	// and its reachability index — what ApplyDelta extends and Compact
	// folds into; nil for a sharded dataset until the first delta needs
	// it (the union graph + composite index are then materialized).
	// batches are the pending mutations, replayed from the log at load
	// or appended in memory by ApplyDelta; se is the scatter-gather
	// engine of a sharded base (nil for flat).
	dbase     *deltaBase
	se        *shard.ShardedEngine
	batches   []delta.Batch
	replay    time.Duration
	buildKind string // backend kind a compaction rebuilds with
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
	return &Catalog{dir: dir, opt: opt, entries: map[string]*entry{}, dlogs: map[string]*dlog{}}, nil
}

// Dir returns the catalog's directory.
func (c *Catalog) Dir() string { return c.dir }

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
	loadShard                 // sharded directory, scatter-gather engine
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

// resolve picks the source to load name from: a sharded directory's
// manifest when one exists (sharding wins — the directory supersedes
// any flat file left behind), otherwise the snapshot when it is at
// least as new as the raw graph (or the only candidate), the raw graph
// otherwise.
func (c *Catalog) resolve(name string) (path string, mod time.Time, kind loadKind, err error) {
	if name != filepath.Base(name) || strings.HasPrefix(name, ".") {
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
		aside := filepath.Join(c.dir, "."+name+".precompact")
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
		go e.load(c.opt, kind)
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
		Graph:         e.ds.Graph,
		Engine:        e.ds.Engine,
		Sharded:       e.ds.Sharded,
		FromSnapshot:  e.ds.FromSnapshot,
		Generation:    e.gen,
		PendingDeltas: delta.Ops(e.batches),
		DeltaBatches:  len(e.batches),
		Card:          e.ds.Card,
		LoadTime:      e.ds.LoadTime,
		entry:         e,
	}
}

// load builds or revives the entry's engine; it runs once per entry.
// After the base is up, any delta log next to it is replayed and the
// pending batches are layered on as an overlay engine (see delta.go).
func (e *entry) load(opt Options, kind loadKind) {
	defer close(e.ready)
	e.c.loads.Add(1)
	start := time.Now()
	switch kind {
	case loadShard:
		se, man, err := shard.LoadDir(filepath.Dir(e.srcPath), shard.LoadOptions{Workers: opt.ShardWorkers, NoPlan: opt.NoPlan})
		if err != nil {
			e.err = err
			return
		}
		if man.Name != e.name {
			e.err = fmt.Errorf("catalog: %s names dataset %q, directory says %q", e.srcPath, man.Name, e.name)
			return
		}
		e.se = se
		e.buildKind = man.Index
		e.ds = &Dataset{
			Name: e.name, Source: e.srcPath, Engine: se,
			Sharded: true, FromSnapshot: true, LoadTime: time.Since(start),
		}
	case loadSnap:
		g, h, err := snapshot.LoadFile(e.srcPath)
		if err != nil {
			e.err = err
			return
		}
		e.dbase = &deltaBase{g: g, h: h}
		e.buildKind = h.Kind()
		e.ds = &Dataset{
			Name: e.name, Source: e.srcPath, Graph: g,
			Engine:       gtea.NewWithIndexOptions(g, h, gtea.Options{NoPlan: opt.NoPlan}),
			FromSnapshot: true,
			LoadTime:     time.Since(start),
		}
	default:
		f, err := os.Open(e.srcPath)
		if err != nil {
			e.err = err
			return
		}
		g, err := graphio.Load(f)
		f.Close()
		if err != nil {
			e.err = fmt.Errorf("%s: %w", e.srcPath, err)
			return
		}
		eng, err := gtea.NewWithOptions(g, gtea.Options{Index: opt.Index, Parallel: opt.Parallel, NoPlan: opt.NoPlan})
		if err != nil {
			e.err = fmt.Errorf("%s: %w", e.srcPath, err)
			return
		}
		// The registered "delta" backend is an empty overlay over the
		// default base; the catalog's delta machinery wants the real
		// base underneath — it has a snapshot codec (the overlay does
		// not) and is what compaction rebuilds and AutoSnapshot saves.
		baseIdx := eng.H
		if ov, ok := baseIdx.(interface{ Base() reach.ContourIndex }); ok {
			baseIdx = ov.Base()
		}
		e.dbase = &deltaBase{g: g, h: baseIdx}
		e.buildKind = baseIdx.Kind()
		e.ds = &Dataset{
			Name: e.name, Source: e.srcPath, Graph: g, Engine: eng,
			LoadTime: time.Since(start),
		}
		if opt.AutoSnapshot {
			// Best effort; serving works without it. The snapshot is
			// stamped no newer than the source so resolve keeps
			// preferring fresher raw files, and the entry's identity
			// moves to the snapshot — resolve will return it from now
			// on, and without this the next Acquire would mistake the
			// path change for a source update and throw the just-built
			// engine away. The snapshot always holds the BASE graph and
			// index; pending deltas stay in the log.
			snapPath := filepath.Join(e.c.dir, e.name+".snap")
			if err := snapshot.SaveFile(snapPath, g, baseIdx); err == nil {
				if err := os.Chtimes(snapPath, e.srcMod, e.srcMod); err == nil {
					e.srcPath = snapPath // published by close(e.ready)
				}
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

// Reload marks the named dataset stale: current holders keep their
// engine, the next Acquire loads fresh.
func (c *Catalog) Reload(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[name]; e != nil && !e.stale {
		e.stale = true
		c.reloads.Add(1)
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
		var manifestPath string
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
					if se, ok := e.ds.Engine.(*shard.ShardedEngine); ok {
						info.Shards = se.NumShards()
						info.ShardMode = string(se.Mode())
						for _, st := range se.ShardStats() {
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
		if manifestPath != "" && info.Shards == 0 {
			// Not loaded yet: the shard count comes from the manifest
			// (listings must not trigger loads). Loaded entries filled
			// it from the engine above, skipping this disk read.
			if man, err := shard.ReadManifest(manifestPath); err == nil {
				info.Shards = len(man.Shards)
				info.ShardMode = string(man.Mode)
			}
		}
		infos = append(infos, info)
	}
	return infos, nil
}

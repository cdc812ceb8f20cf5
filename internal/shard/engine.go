package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/reach"
)

// Options tune sharded engine construction, loading and execution.
type Options struct {
	// Index names the reachability backend for per-shard indexes
	// (empty: the default 3-hop index). Ignored by LoadDir and Single —
	// their indexes are already built.
	Index string
	// NoPlan disables the planner's kernel rule in every per-shard
	// engine (gtea.Options.NoPlan).
	NoPlan bool
}

// shardUnit is one shard at runtime: a regular GTEA engine over the
// shard subgraph plus the local→global id mapping and cumulative
// serving counters.
type shardUnit struct {
	eng *gtea.Engine
	// globals maps local id -> global id, ascending; nil when the two
	// are the same (Single, and a one-shard LoadDir).
	globals []graph.NodeID
	evals   atomic.Int64
	evalNs  atomic.Int64
}

// ShardedEngine evaluates queries over a partitioned dataset by
// fanning each evaluation out across per-shard engines on a bounded
// worker pool and k-way-merging the remapped result streams. With one
// shard there is nothing to fan out or merge: every evaluation is the
// shard engine's own (see Single). Like gtea.Engine it is immutable
// after construction and safe for concurrent use.
type ShardedEngine struct {
	kind       string
	workers    int
	totalNodes int
	totalEdges int
	shards     []*shardUnit
}

// NewEngine builds a sharded engine in memory from a graph and a plan:
// one subgraph (graph.Induced), reachability index, and GTEA engine per
// shard. Shards are cut and built GOMAXPROCS at a time (the scatter
// width, normalizeWorkers), each from g and its own part alone,
// so what a shard holds does not depend on which shards build beside
// it; an error names the lowest failing shard. For the on-disk path see
// WriteDir/LoadDir.
func NewEngine(g *graph.Graph, plan *Plan, opt Options) (*ShardedEngine, error) {
	g.Freeze()
	se := &ShardedEngine{
		workers:    normalizeWorkers(len(plan.Parts)),
		totalNodes: g.N(),
		totalEdges: g.M(),
		shards:     make([]*shardUnit, len(plan.Parts)),
	}
	err := forEachShard(len(plan.Parts), se.workers, func(i int) error {
		part := plan.Parts[i]
		eng, err := gtea.NewWithOptions(g.Induced(part), gtea.Options{Index: opt.Index, NoPlan: opt.NoPlan})
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		se.shards[i] = &shardUnit{eng: eng, globals: part}
		return nil
	})
	if err != nil {
		return nil, err
	}
	se.kind = se.shards[0].eng.IndexKind()
	return se, nil
}

// Single serves g and its already-built index h as a one-shard engine:
// the shard is g itself, so there is no id mapping, Union and
// CompositeIndex return g and h, and every evaluation runs on the shard
// engine (Flat) with no worker and no merge.
func Single(g *graph.Graph, h reach.ContourIndex, opt Options) *ShardedEngine {
	return &ShardedEngine{
		kind:       h.Kind(),
		workers:    1,
		totalNodes: g.N(),
		totalEdges: g.M(),
		shards:     []*shardUnit{{eng: gtea.NewWithIndex(g, h, gtea.Options{NoPlan: opt.NoPlan})}},
	}
}

// Flat returns the engine of a one-shard engine's only shard, which
// answers every query exactly as the sharded engine does; nil when
// there are several shards.
func (se *ShardedEngine) Flat() *gtea.Engine {
	if len(se.shards) != 1 {
		return nil
	}
	return se.shards[0].eng
}

// normalizeWorkers is the scatter width of every per-shard loop
// (build, save, load, evaluation): GOMAXPROCS, clamped to [1, shards].
func normalizeWorkers(shards int) int {
	return max(1, min(runtime.GOMAXPROCS(0), shards))
}

// forEachShard runs f(0), ..., f(k-1) on at most workers goroutines,
// the caller's own among them, and returns the error of the lowest i
// whose f failed: what a loop over the shards in order would report.
// Shards are started in index order, and none after a failed one, so
// every shard below the lowest failure has run. Every goroutine it
// starts has returned when it returns.
func forEachShard(k, workers int, f func(i int) error) error {
	errs := make([]error, k)
	var next, failed atomic.Int64
	failed.Store(int64(k))
	work := func() {
		for {
			i := next.Add(1) - 1
			if i >= failed.Load() {
				return
			}
			if errs[i] = f(int(i)); errs[i] != nil {
				for cur := failed.Load(); i < cur && !failed.CompareAndSwap(cur, i); cur = failed.Load() {
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// NumShards returns the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// IndexKind reports the per-shard reachability backend.
func (se *ShardedEngine) IndexKind() string { return se.kind }

// IndexSize reports the summed size of all per-shard indexes.
func (se *ShardedEngine) IndexSize() int {
	total := 0
	for _, u := range se.shards {
		total += u.eng.IndexSize()
	}
	return total
}

// LabelCount returns the number of logical vertices carrying label:
// the per-shard counts sum exactly, since shards are disjoint.
func (se *ShardedEngine) LabelCount(label string) int {
	n := 0
	for _, u := range se.shards {
		n += u.eng.LabelCount(label)
	}
	return n
}

// TotalNodes returns the logical (unsharded) node count.
func (se *ShardedEngine) TotalNodes() int { return se.totalNodes }

// TotalEdges returns the logical (unsharded) edge count.
func (se *ShardedEngine) TotalEdges() int { return se.totalEdges }

// ShardStat is one shard's size and cumulative serving counters.
type ShardStat struct {
	Nodes int
	Edges int
	// Evals counts evaluations dispatched to this shard (including
	// aborted ones); EvalTime is their summed wall time.
	Evals    int64
	EvalTime time.Duration
}

// ShardStats returns per-shard sizes and cumulative timings, in shard
// order. Safe for concurrent use with evaluations.
func (se *ShardedEngine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(se.shards))
	for i, u := range se.shards {
		out[i] = ShardStat{
			Nodes:    u.eng.G.N(),
			Edges:    u.eng.G.M(),
			Evals:    u.evals.Load(),
			EvalTime: time.Duration(u.evalNs.Load()),
		}
	}
	return out
}

// EvalStatsCtx scatter-gathers q and materializes the merged stream:
// it is gtea.Collect over EvalCursor, so the answer is the canonical
// union of the disjoint per-shard results in global ids. The
// returned stats sum the per-shard work counters; TotalTime is the
// scatter-gather wall time. On cancellation (or a shard failure) the
// remaining shard evaluations are cancelled, every worker is drained
// before returning — no shard worker outlives the call — and the first
// error in shard order is returned. Safe for concurrent use.
func (se *ShardedEngine) EvalStatsCtx(ctx context.Context, q *core.Query) (*core.Answer, gtea.Stats, error) {
	start := time.Now()
	cur, st, err := se.EvalCursor(ctx, q)
	if err != nil {
		return nil, st, err
	}
	defer cur.Close()
	ans, err := gtea.Collect(cur)
	st.TotalTime = time.Since(start)
	if err != nil {
		return nil, st, err
	}
	st.Results = int64(ans.Len())
	return ans, st, nil
}

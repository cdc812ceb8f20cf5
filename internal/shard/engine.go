package shard

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
)

// Options tune sharded engine construction and execution.
type Options struct {
	// Index names the reachability backend for per-shard indexes
	// (empty: the default 3-hop index). Ignored by LoadDir — shard
	// snapshots carry their own backend.
	Index string
	// Parallel builds per-shard indexes with multiple goroutines.
	Parallel bool
	// Workers bounds the scatter-gather fan-out per evaluation
	// (default GOMAXPROCS, clamped to the shard count).
	Workers int
	// NoPlan disables the cost-based planner in every per-shard engine
	// (gtea.Options.NoPlan).
	NoPlan bool
}

// shardUnit is one shard at runtime: a regular GTEA engine over the
// shard subgraph plus the local→global id mapping and cumulative
// serving counters.
type shardUnit struct {
	eng     *gtea.Engine
	globals []graph.NodeID // local id -> global id, ascending
	evals   atomic.Int64
	evalNs  atomic.Int64
}

// ShardedEngine evaluates queries over a partitioned dataset by
// fanning each evaluation out across per-shard engines on a bounded
// worker pool and k-way-merging the remapped result streams. Like gtea.Engine it is
// immutable after construction and safe for concurrent use.
type ShardedEngine struct {
	mode       Mode
	kind       string
	workers    int
	totalNodes int
	totalEdges int
	replicated int
	shards     []*shardUnit

	// Lazily built logical label histogram (replicated vertices counted
	// once), behind ContourIndex.LabelCount on the composite index.
	labelOnce sync.Once
	labelCt   map[string]int
}

// NewEngine builds a sharded engine in memory from a graph and a plan:
// one subgraph, reachability index, and GTEA engine per shard. For the
// on-disk path see WriteDir/LoadDir.
func NewEngine(g *graph.Graph, plan *Plan, opt Options) (*ShardedEngine, error) {
	g.Freeze()
	se := &ShardedEngine{
		mode:       plan.Mode,
		workers:    normalizeWorkers(opt.Workers, len(plan.Parts)),
		totalNodes: g.N(),
		totalEdges: g.M(),
		replicated: plan.Replicated,
	}
	for _, part := range plan.Parts {
		sg := Subgraph(g, part)
		eng, err := gtea.NewWithOptions(sg, gtea.Options{Index: opt.Index, Parallel: opt.Parallel, NoPlan: opt.NoPlan})
		if err != nil {
			return nil, err
		}
		se.shards = append(se.shards, &shardUnit{eng: eng, globals: part})
	}
	se.kind = se.shards[0].eng.IndexKind()
	return se, nil
}

func normalizeWorkers(w, shards int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if shards >= 1 && w > shards {
		w = shards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// NumShards returns the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// Mode returns the partitioning mode this engine was built from.
func (se *ShardedEngine) Mode() Mode { return se.mode }

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

// labelHist lazily builds the logical label histogram: vertices
// replicated into several shards count once (their first residence is
// authoritative, as in Union).
func (se *ShardedEngine) labelHist() map[string]int {
	se.labelOnce.Do(func() {
		se.labelCt = make(map[string]int)
		present := make([]bool, se.totalNodes)
		for _, u := range se.shards {
			for lv, gv := range u.globals {
				if present[gv] {
					continue
				}
				present[gv] = true
				se.labelCt[u.eng.G.Label(graph.NodeID(lv))]++
			}
		}
	})
	return se.labelCt
}

// LabelCount returns the number of logical vertices carrying label.
func (se *ShardedEngine) LabelCount(label string) int { return se.labelHist()[label] }

// TotalNodes returns the logical (unsharded) node count.
func (se *ShardedEngine) TotalNodes() int { return se.totalNodes }

// TotalEdges returns the logical (unsharded) edge count.
func (se *ShardedEngine) TotalEdges() int { return se.totalEdges }

// Replicated counts vertex copies beyond the first across all shards
// (0 under ModeWCC).
func (se *ShardedEngine) Replicated() int { return se.replicated }

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

// Eval evaluates q across all shards and returns the merged answer.
// The query must be valid and have at least one output node. Safe for
// concurrent use.
func (se *ShardedEngine) Eval(q *core.Query) *core.Answer {
	ans, _, err := se.EvalStatsCtx(context.Background(), q)
	if err != nil {
		panic("shard: " + err.Error()) // background context cannot fail
	}
	return ans
}

// EvalStatsCtx scatter-gathers q and materializes the merged stream:
// it is gtea.Collect over EvalCursor, so the answer is the canonical
// deduplicating union of the per-shard results in global ids. The
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

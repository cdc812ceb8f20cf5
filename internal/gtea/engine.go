// Package gtea implements the paper's GTPQ evaluation algorithm (§4):
// two-round pruning of candidate matching nodes over a reachability
// index with merged contours (PruneDownward, Procedure 6; PruneUpward,
// Procedure 7), reduction to the shrunk prime subtree, a compact
// maximal matching graph for intermediate results, and result
// enumeration (CollectResults, Procedure 5). PC edges are handled per
// §4.4 with exact adjacency valuations.
//
// The engine is layered over the reach.ContourIndex abstraction: any
// backend providing point reachability and merged set contours works
// (reach.Build selects one by name). Over the paper's 3-hop index
// (*reach.ThreeHop) pruning also gets the Procedure 6/7 shared-walk
// and chain-inheritance optimizations; every other backend is pruned
// with one reach.SetContour probe per candidate. With the planner on
// (plan.go), both rounds read bitset contours found by graph search
// instead, on every backend but the transitive closure.
//
// An Engine is immutable after construction and safe for concurrent
// use: all per-evaluation state lives in a per-call context, and every
// index lookup is charged to a per-call stats sink.
package gtea

import (
	"context"
	"sync"
	"time"

	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/obs"
	"gtpq/internal/reach"
)

// Stats reports the work a single evaluation performed, matching the
// paper's I/O-cost metrics (Fig 10).
type Stats struct {
	// Input counts data-node accesses (candidate scans plus pruning and
	// matching-graph passes); it is always PruneInput + EnumInput.
	Input int64
	// PruneInput is the pruning share of Input: candidate scans and the
	// two pruning rounds (including the set and the search pops behind
	// each bitset contour). Planner wins show up here.
	PruneInput int64
	// EnumInput is the enumeration share of Input: matching-graph
	// construction and result collection passes.
	EnumInput int64
	// Index counts index elements looked up (3-hop list entries or
	// closure words).
	Index int64
	// Intermediate is twice the node+edge count of the maximal matching
	// graph — the paper's measure of intermediate-result size.
	Intermediate int64
	// Results is the number of result tuples.
	Results int64
	// PruneTime covers both pruning rounds; TotalTime the whole
	// evaluation.
	PruneTime time.Duration
	TotalTime time.Duration
	// Plan is the planner's record of this evaluation (nil with
	// Options.NoPlan): the per-node kernel the rule chose, with
	// estimated vs. actual candidate counts, so misestimates are
	// observable. A sharded evaluation sums its shards' plans node by
	// node.
	Plan *PlanInfo
}

// Options tune the engine; the zero value is the paper's algorithm over
// its 3-hop index. The No* flags exist for the ablation benchmarks.
type Options struct {
	// NoContours disables contour merging: every pruning probe is a
	// pairwise SetContour, which asks ReachesSt once per member of the
	// set, and no bitset contour is built. Over the 3-hop index,
	// positive valuations are still inherited along a chain. The
	// matching graph keeps the backend's contours.
	NoContours bool
	// NoShrink disables the shrunk prime subtree: enumeration walks the
	// full prime subtree.
	NoShrink bool
	// NoPlan disables the planner: pruning always probes the index's
	// contours (no bitset contours, which the planner's rule otherwise
	// reads on every AD edge of the upward round and at every internal
	// node downward, unless the index is the transitive closure), and
	// no plan is recorded. The escape hatch behind the -plan=off flags.
	NoPlan bool
	// Index names the reachability backend (reach.Kinds lists them;
	// empty selects reach.DefaultKind, the 3-hop index).
	Index string
}

// Engine evaluates GTPQs over one fixed graph; build once, evaluate
// many queries. The engine is immutable after construction (graph,
// index, options) and safe for concurrent Eval calls.
type Engine struct {
	G   *graph.Graph
	H   reach.ContourIndex
	Opt Options

	// ctxPool recycles evalContexts (and all their scratch: candidate
	// arenas, bitsets, bucket buffers) across calls, so a warmed
	// engine's evaluations allocate only their results. Contexts are
	// engine-local because their scratch is sized to this graph.
	ctxPool sync.Pool
	// closure is the kernel rule's one exception (plan.go): H is the
	// transitive closure, flat or under a delta overlay. Decided at
	// construction because an overlay builds its Kind string per call.
	closure bool
}

// New builds a GTEA engine (and its 3-hop index) for g.
func New(g *graph.Graph) *Engine {
	e, err := NewWithOptions(g, Options{})
	if err != nil {
		panic("gtea: " + err.Error()) // default backend cannot fail
	}
	return e
}

// NewWithOptions builds an engine with the named index backend.
func NewWithOptions(g *graph.Graph, opt Options) (*Engine, error) {
	g.Freeze()
	h, err := reach.Build(opt.Index, g)
	if err != nil {
		return nil, err
	}
	return NewWithIndex(g, h, opt), nil
}

// NewWithIndex wraps an already-built index h over g (shared across
// engines, revived from a snapshot, or a delta overlay) with the given
// options. opt.Index is unused: the index is already built.
func NewWithIndex(g *graph.Graph, h reach.ContourIndex, opt Options) *Engine {
	return &Engine{G: g, H: h, Opt: opt, closure: closureIndex(h)}
}

// LabelCount reports how many data nodes carry the label, read from
// the evaluation graph's label index (part of the catalog.Engine
// interface; the planner and cost-based admission both estimate
// candidate-set sizes this way, via card.Candidates).
func (e *Engine) LabelCount(label string) int { return len(e.G.ByLabel(label)) }

// IndexKind reports the reachability backend this engine evaluates
// over (part of the catalog.Engine interface shared with sharded
// execution).
func (e *Engine) IndexKind() string { return e.H.Kind() }

// IndexSize reports the size of the engine's reachability index.
func (e *Engine) IndexSize() int { return e.H.IndexSize() }

// evalContext is the mutable state of one evaluation. Engines are
// shared; contexts are not — one is created per Eval call, which is
// what makes the engine reentrant.
type evalContext struct {
	g   *graph.Graph
	h   reach.ContourIndex
	ch  *reach.ThreeHop // non-nil when the backend is the 3-hop index
	opt Options

	// mat[u] is query node u's surviving candidate list; the slices
	// point into candArena so a whole evaluation's candidate storage is
	// one (reused) allocation. matSet[u] mirrors mat[u] as a bitset for
	// O(1) membership during PC-adjacency and matching-graph passes.
	mat       [][]graph.NodeID
	matSet    []core.Bitset
	candArena []graph.NodeID

	// Pruning scratch, reused across calls (see prune.go): valBuf holds
	// per-candidate child valuations, adKids/pcKids the current node's
	// child split, cps/gps the per-child contour summaries, and the
	// bucket* buffers the chain-grouped candidate orderings.
	valBuf    []bool
	adKids    []int
	pcKids    []int
	ambiguous []int
	cps       []*reach.Contour
	gps       []reach.SetContour
	bucketPos []chainPos
	bucketBuf []graph.NodeID
	bucketOut [][]graph.NodeID

	// Planner state (see plan.go): the plan record, the kernel rule,
	// and the bitset contours' scratch (prune.go): contours[u] holds
	// the last contour built from mat[u], and bfsStack is the search
	// stack that fills it. plan is freshly allocated per call (it
	// escapes through Stats); the rest is pooled like every other
	// buffer.
	plan     *PlanInfo
	multiway bool
	contours []core.Bitset
	bfsStack []graph.NodeID

	// Seeded evaluation (see seed.go): with seeded set, the root's
	// initial candidates are intersected with seedSet before the arena
	// copy, restricting the whole evaluation to embeddings whose root
	// image lies in the seed. seedScratch holds the filtered list so the
	// borrowed label index is never mutated.
	seeded      bool
	seedSet     core.Bitset
	seedScratch []graph.NodeID

	stat Stats
	rst  reach.Stats // per-call index-lookup sink

	// ctx, when non-nil, is polled at pruning-round and enumeration
	// boundaries (and every opsPerCtxCheck units of inner-loop work) so
	// deadlines and cancellation abort long evaluations promptly. err
	// latches the first context error; once set, every phase bails out.
	ctx context.Context
	err error
	ops int
}

// opsPerCtxCheck spaces the in-loop context polls: power of two, large
// enough that Err() is off the hot path, small enough that candidate
// scans and tuple enumeration abort within microseconds of a deadline.
const opsPerCtxCheck = 1024

// cancelled polls the context (if any), latching its error.
func (ec *evalContext) cancelled() bool {
	if ec.ctx == nil {
		return false
	}
	if ec.err != nil {
		return true
	}
	if err := ec.ctx.Err(); err != nil {
		ec.err = err
		return true
	}
	return false
}

// tick is the inner-loop variant of cancelled: it only polls the
// context every opsPerCtxCheck calls.
func (ec *evalContext) tick() bool {
	if ec.ctx == nil {
		return false
	}
	if ec.err != nil {
		return true
	}
	ec.ops++
	if ec.ops&(opsPerCtxCheck-1) != 0 {
		return false
	}
	return ec.cancelled()
}

// newContext checks a context out of the pool (or allocates the first
// time), re-arming it for this engine. All scratch buffers keep their
// backing arrays; everything observable is reset.
func (e *Engine) newContext() *evalContext {
	ec, _ := e.ctxPool.Get().(*evalContext)
	if ec == nil {
		ec = &evalContext{}
	}
	ec.g, ec.h, ec.opt = e.G, e.H, e.Opt
	ec.ch, _ = e.H.(*reach.ThreeHop)
	ec.multiway = !e.Opt.NoPlan && !e.Opt.NoContours && !e.closure
	ec.stat = Stats{}
	ec.rst = reach.Stats{}
	ec.ctx, ec.err, ec.ops = nil, nil, 0
	ec.plan = nil
	ec.seeded = false
	return ec
}

// release returns a context to the pool. Callers must not hand out
// references into its scratch (mat, buckets, arenas) past this point;
// answers are safe — their tuples are freshly allocated.
func (e *Engine) release(ec *evalContext) {
	// Drop contour references so a pooled context cannot pin another
	// evaluation's merged contours (or, after a reload, an old index).
	clear(ec.cps)
	clear(ec.gps)
	e.ctxPool.Put(ec)
}

// Eval evaluates q and returns its answer. The query must be valid and
// have at least one output node. Safe for concurrent use.
func (e *Engine) Eval(q *core.Query) *core.Answer {
	ans, _ := e.EvalStats(q)
	return ans
}

// EvalStats evaluates q and returns its answer together with the cost
// counters of this call. Safe for concurrent use: counters are
// per-call, never shared engine state.
func (e *Engine) EvalStats(q *core.Query) (*core.Answer, Stats) {
	ans, st, _ := e.EvalStatsCtx(context.Background(), q)
	return ans, st
}

// EvalStatsCtx evaluates q under ctx and returns the answer and the
// per-call cost counters. The answer is Collect over the evaluation's
// cursor, drained inside the enumerate stage and TotalTime. When ctx is
// cancelled (or its deadline passes) mid-evaluation, the partial answer
// is discarded and ctx's error returned; the counters still report the
// work performed up to the abort. Safe for concurrent use.
func (e *Engine) EvalStatsCtx(ctx context.Context, q *core.Query) (*core.Answer, Stats, error) {
	return e.collect(ctx, q, false, nil)
}

// collect is the materializing entry shared by EvalStatsCtx and
// EvalSeededStatsCtx (seed.go).
func (e *Engine) collect(ctx context.Context, q *core.Query, seeded bool, seed []graph.NodeID) (*core.Answer, Stats, error) {
	var ans *core.Answer
	st, err := e.evaluate(ctx, q, seeded, seed, func(c Cursor) (err error) {
		ans, err = Collect(c)
		return err
	})
	if err != nil {
		return nil, st, err
	}
	st.Results = int64(ans.Len())
	return ans, st, nil
}

// evaluate is the one evaluation body behind every entry point: context
// set-up, the two pruning rounds, the shrunk prime subtree, the maximal
// matching graph and per-component result collection (§4.3), then the
// stats and span epilogue. tail receives the cursor over the
// cross-component product (newCursor) inside the enumerate span, and
// returns it or drains it; its error aborts the evaluation. It does not
// run when the evaluation was cancelled. With seeded set, the root's
// candidates are restricted to seed before pruning starts.
func (e *Engine) evaluate(ctx context.Context, q *core.Query, seeded bool, seed []graph.NodeID, tail func(Cursor) error) (Stats, error) {
	start := time.Now()
	ec := e.newContext()
	defer e.release(ec)
	if seeded {
		ec.seeded = true
		ec.seedSet.Fill(e.G.N(), seed)
	}
	// Done() is nil exactly for never-cancellable contexts (Background,
	// TODO, value-only chains): skip all polling overhead for them.
	if ctx != nil && ctx.Done() != nil {
		ec.ctx = ctx
	}
	// Stage spans attach under the context's current span (the server's
	// trace root, or a shard span in a fan-out); with no trace in ctx
	// every span call below is a nil no-op.
	parent := obs.SpanFrom(ctx)

	outs := q.Outputs()
	if len(outs) == 0 {
		panic("gtea: query has no output nodes")
	}

	pt := partials{empty: true}
	var sp *obs.Span
	prime, alive := ec.pruneAll(q, outs, parent)
	if alive && ec.err == nil {
		sp = parent.Start("enumerate")
		f, singles := ec.shrink(q, prime, outs)
		mg := ec.buildMatchingGraph(q, f)
		if ec.err == nil {
			pt = ec.collectPartials(q, f, singles, mg)
		}
	}
	if ec.err == nil {
		ec.err = tail(newCursor(ec.ctx, outs, pt))
	}
	sp.AttrInt("intermediate", ec.stat.Intermediate)
	sp.End()

	ec.finishPlan(q)
	ec.stat.Input = ec.stat.PruneInput + ec.stat.EnumInput
	ec.stat.Index = ec.rst.Lookups
	ec.stat.TotalTime = time.Since(start)
	if ec.plan != nil {
		// Est-vs-actual plan summary, readable straight off a trace or
		// slowlog entry without the full PlanInfo.
		parent.Attr("plan", ec.plan.String())
	}
	parent.AttrInt("index_lookups", ec.stat.Index)
	return ec.stat, ec.err
}

// pruneAll runs planning, candidate initialization, and the two pruning
// rounds, with their trace spans and PruneTime accounting. It returns
// the prime subtree and whether the root kept at least one candidate
// (alive == false means the answer is empty — or ec.err is set).
func (ec *evalContext) pruneAll(q *core.Query, outs []int, parent *obs.Span) ([]bool, bool) {
	sp := parent.Start("plan")
	ec.planQuery(q)
	sp.End()
	sp = parent.Start("candidates")
	ec.initCandidates(q)
	sp.End()

	pruneStart := time.Now()
	sp = parent.Start("prune_down")
	ec.pruneDownward(q)
	sp.AttrInt("prune_input", ec.stat.PruneInput)
	sp.End()
	if ec.err != nil || len(ec.mat[q.Root]) == 0 {
		ec.stat.PruneTime = time.Since(pruneStart)
		return nil, false
	}
	sp = parent.Start("prune_up")
	prime := ec.primeSubtree(q, outs)
	ec.pruneUpward(q, prime)
	sp.End()
	ec.stat.PruneTime = time.Since(pruneStart)
	return prime, true
}

// initCandidates fills the initial candidate matching nodes and sizes
// the per-query scratch. Candidate lists are copied — pruning filters
// in place, and Candidates may return the graph's internal label index
// (also shared between query nodes with the same predicate) — but into
// one reused arena, not one allocation per node.
func (ec *evalContext) initCandidates(q *core.Query) {
	n := len(q.Nodes)
	ec.mat = growSlice(ec.mat, n)
	ec.matSet = growSlice(ec.matSet, n)
	ec.valBuf = growSlice(ec.valBuf, n)
	ec.cps = growSlice(ec.cps, n)
	ec.gps = growSlice(ec.gps, n)
	ec.contours = growSlice(ec.contours, n)

	// First pass borrows the (read-only) candidate sources to size the
	// arena; the second copies, so arena growth cannot move slices that
	// were already handed out.
	total := 0
	for u := range q.Nodes {
		cs := core.Candidates(ec.g, q.Nodes[u].Attr)
		ec.stat.PruneInput += int64(len(cs))
		if ec.seeded && u == q.Root {
			// Restrict the root to the seed before the arena copy; the
			// filtered list lives in its own scratch because cs may be
			// the graph's shared label index.
			kept := ec.seedScratch[:0]
			for _, v := range cs {
				if ec.seedSet.Has(v) {
					kept = append(kept, v)
				}
			}
			ec.seedScratch = kept
			cs = kept
		}
		ec.mat[u] = cs
		total += len(cs)
		if ec.plan != nil {
			ec.plan.Nodes[u].InitCands = len(cs)
		}
	}
	if cap(ec.candArena) < total {
		ec.candArena = make([]graph.NodeID, 0, total)
	}
	arena := ec.candArena[:0]
	for u := range q.Nodes {
		start := len(arena)
		arena = append(arena, ec.mat[u]...)
		// Full slice expression: an append past one node's region must
		// reallocate rather than clobber its neighbor (pruning only ever
		// shrinks, but the invariant should not rest on that alone).
		ec.mat[u] = arena[start:len(arena):len(arena)]
	}
	ec.candArena = arena
}

// growSlice resizes s to length n, reusing capacity. Elements keep
// whatever state they had (bitsets keep their backing arrays; pointer
// slots may hold stale values — callers overwrite before reading).
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	ns := make([]T, n)
	copy(ns, s)
	return ns
}

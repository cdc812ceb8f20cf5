package shard

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"time"

	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/obs"
)

// mergeCursor k-way-merges per-shard canonical-order cursors into one
// canonical-order stream without materializing: it holds exactly one
// remapped head row per child. Every tuple of a match lies in one
// weakly-connected component, hence in one shard, so the children's
// rows are disjoint and the merge emits each of them once.
type mergeCursor struct {
	out      []int
	children []gtea.Cursor
	// remaps[i] rewrites child i's rows into global ids. Remapping by an
	// ascending globals slice is monotone, so it preserves each child's
	// canonical order.
	remaps [][]graph.NodeID
	heads  [][]graph.NodeID // current row per child; nil = exhausted
	// row is the last row handed out; it stays valid until the next Next,
	// or for good when the merge is buffered.
	row     []graph.NodeID
	onClose func()
	// buffered is decided at construction: every child materialized.
	buffered bool

	err    error
	closed bool
	rows   int64
}

// newMergeCursor merges canonical-order cursors over the same output
// columns, remapping child i's rows through remaps[i]. onClose, if
// non-nil, runs once when the merge is closed or drained — the sharded
// engine hangs its scatter-context cancel there.
func newMergeCursor(out []int, children []gtea.Cursor, remaps [][]graph.NodeID, onClose func()) *mergeCursor {
	m := &mergeCursor{
		out:      out,
		children: children,
		remaps:   remaps,
		heads:    make([][]graph.NodeID, len(children)),
		row:      make([]graph.NodeID, len(out)),
		onClose:  onClose,
	}
	m.buffered = true
	for i, c := range children {
		m.buffered = m.buffered && c.Buffered()
		m.heads[i] = make([]graph.NodeID, len(out))
		m.advance(i)
	}
	return m
}

// advance pulls child i's next row into its head buffer (remapped),
// marking the child exhausted — and latching its error — at the end.
func (m *mergeCursor) advance(i int) {
	row, ok := m.children[i].Next()
	if !ok {
		if err := m.children[i].Err(); err != nil && m.err == nil {
			m.err = err
		}
		m.heads[i] = nil
		return
	}
	head, g := m.heads[i], m.remaps[i]
	for j, v := range row {
		head[j] = g[v]
	}
}

func (m *mergeCursor) Out() []int { return m.out }

func (m *mergeCursor) Next() ([]graph.NodeID, bool) {
	if m.closed || m.err != nil {
		return nil, false
	}
	// Linear-scan min: shard counts are small (single digits), where a
	// scan beats heap bookkeeping.
	min := -1
	for i, h := range m.heads {
		if h == nil {
			continue
		}
		if min == -1 || core.CompareTuples(h, m.heads[min]) < 0 {
			min = i
		}
	}
	if min == -1 {
		m.finish()
		return nil, false
	}
	if m.buffered {
		m.row = make([]graph.NodeID, len(m.out)) // buffered rows stay valid
	}
	copy(m.row, m.heads[min])
	m.advance(min)
	if m.err != nil {
		m.finish()
		return nil, false
	}
	m.rows++
	return m.row, true
}

func (m *mergeCursor) Err() error     { return m.err }
func (m *mergeCursor) Rows() int64    { return m.rows }
func (m *mergeCursor) Buffered() bool { return m.buffered }

func (m *mergeCursor) Close() {
	if !m.closed {
		m.closed = true
		m.finish()
	}
}

// finish closes every child and runs the onClose hook exactly once.
func (m *mergeCursor) finish() {
	for i, c := range m.children {
		if c != nil {
			c.Close()
			m.children[i] = nil
		}
	}
	if m.onClose != nil {
		m.onClose()
		m.onClose = nil
	}
}

// EvalCursor scatter-opens a per-shard cursor on the worker pool (at
// most GOMAXPROCS shard evaluations run at once) and returns their
// streaming k-way merge. Pruning and per-component collection run
// eagerly per shard during this call (as in the flat engine); only the
// cross-component products and the global merge stream. Each shard's
// evaluation gets its own trace span shard_<i>, nested under the
// caller's current span, with the engine stages nested under it. A
// failed shard cancels the rest — every shard is still dispatched and
// every worker drained before returning — and the first error in shard
// order is returned. Closing the returned cursor — at any point of the
// drain — closes every shard cursor and cancels the scatter context;
// callers must Close it even after a clean drain. Stats sum the
// per-shard counters and plans (mergePlans); Results stays 0 (use
// Cursor.Rows after the drain). A one-shard engine returns its shard's
// own cursor and stats. Safe for concurrent use.
func (se *ShardedEngine) EvalCursor(ctx context.Context, q *core.Query) (gtea.Cursor, gtea.Stats, error) {
	if eng := se.Flat(); eng != nil {
		return eng.EvalCursor(ctx, q)
	}
	start := time.Now()
	if ctx == nil {
		ctx = context.Background() // same tolerance as gtea.EvalCursor
	}
	cctx, cancel := context.WithCancel(ctx)
	scatter := obs.SpanFrom(cctx)

	children := make([]gtea.Cursor, len(se.shards))
	remaps := make([][]graph.NodeID, len(se.shards))
	stats := make([]gtea.Stats, len(se.shards))
	errs := make([]error, len(se.shards))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < se.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := range jobs {
				u := se.shards[si]
				sctx := cctx
				var sp *obs.Span
				if scatter != nil {
					// Guarded so the untraced hot path allocates nothing.
					sp = scatter.Start("shard_" + strconv.Itoa(si))
					sctx = obs.ContextWithSpan(cctx, sp)
				}
				t0 := time.Now()
				children[si], stats[si], errs[si] = u.eng.EvalCursor(sctx, q)
				u.evals.Add(1)
				u.evalNs.Add(time.Since(t0).Nanoseconds())
				sp.End()
				remaps[si] = u.globals
				if errs[si] != nil {
					cancel() // a failed shard makes the merge impossible
				}
			}
		}()
	}
	for si := range se.shards {
		jobs <- si
	}
	close(jobs)
	wg.Wait()

	var agg gtea.Stats
	var firstErr error
	for si, st := range stats {
		agg.Input += st.Input
		agg.PruneInput += st.PruneInput
		agg.EnumInput += st.EnumInput
		agg.Index += st.Index
		agg.Intermediate += st.Intermediate
		agg.PruneTime += st.PruneTime
		if firstErr == nil {
			firstErr = errs[si]
		}
	}
	agg.Plan = mergePlans(stats)
	agg.TotalTime = time.Since(start)
	if firstErr != nil {
		for _, c := range children {
			if c != nil {
				c.Close()
			}
		}
		cancel()
		return nil, agg, firstErr
	}
	out := append([]int(nil), children[0].Out()...)
	// The merge cursor owns the scatter context now: Close (or a full
	// drain) cancels it, releasing any deadline timers up the chain.
	return newMergeCursor(out, children, remaps, cancel), agg, nil
}

// mergePlans sums the shards' plans node by node: every shard runs the
// same kernel rule over the same index kind, so the kernels agree, and
// the estimated, initial and surviving candidate counts add up over
// the shards' disjoint node sets. Nil with the planner off.
func mergePlans(stats []gtea.Stats) *gtea.PlanInfo {
	if stats[0].Plan == nil {
		return nil
	}
	agg := &gtea.PlanInfo{Nodes: slices.Clone(stats[0].Plan.Nodes)}
	for _, st := range stats[1:] {
		for i, n := range st.Plan.Nodes {
			agg.Nodes[i].EstCands += n.EstCands
			agg.Nodes[i].InitCands += n.InitCands
			agg.Nodes[i].FinalCands += n.FinalCands
		}
	}
	return agg
}

package gtea

import (
	"context"
	"sort"

	"gtpq/internal/core"
	"gtpq/internal/graph"
)

// Cursor is a pull-based iterator over one query's result tuples in
// canonical order: lexicographically sorted, distinct, exactly the
// sequence Eval materializes after Canonicalize. Streaming layers
// (NDJSON responses, cursor pagination, sharded k-way merges) drain a
// Cursor row by row instead of holding the whole answer.
//
// A Cursor is single-consumer and not safe for concurrent use.
type Cursor interface {
	// Out returns the output query-node ids, ascending — the column
	// order of every row.
	Out() []int
	// Next returns the next result tuple, or (nil, false) after the
	// last row (or on error — check Err). The returned slice is only
	// valid until the following Next or Close call; callers that retain
	// rows must copy them.
	Next() ([]graph.NodeID, bool)
	// Err reports the error that terminated iteration early (context
	// cancellation), or nil after a clean drain.
	Err() error
	// Rows counts the tuples handed out so far.
	Rows() int64
	// Buffered reports whether this cursor materialized its full result
	// up front (the interleaved-component fallback, or an answer-backed
	// cursor) rather than enumerating lazily.
	Buffered() bool
	// Close releases the cursor's resources. Safe to call at any point,
	// including before the drain finishes, and more than once.
	Close()
}

// Collect drains c to completion and returns the rows as an Answer
// (tuples copied, already in canonical order). The internal/equiv
// driver checks what it returns against the core.EvalNaive oracle.
func Collect(c Cursor) (*core.Answer, error) {
	ans := &core.Answer{Out: append([]int(nil), c.Out()...)}
	for {
		row, ok := c.Next()
		if !ok {
			return ans, c.Err()
		}
		ans.Add(append([]graph.NodeID(nil), row...))
	}
}

// answerCursor streams a materialized canonical answer. It backs the
// empty-result and interleaved-component paths, and pagination over
// cached answers.
type answerCursor struct {
	ans  *core.Answer
	pos  int
	rows int64
}

// NewAnswerCursor wraps a canonicalized answer as a Cursor.
func NewAnswerCursor(ans *core.Answer) Cursor {
	return &answerCursor{ans: ans}
}

func (c *answerCursor) Out() []int { return c.ans.Out }

func (c *answerCursor) Next() ([]graph.NodeID, bool) {
	if c.pos >= len(c.ans.Tuples) {
		return nil, false
	}
	t := c.ans.Tuples[c.pos]
	c.pos++
	c.rows++
	return t, true
}

func (c *answerCursor) Err() error     { return nil }
func (c *answerCursor) Rows() int64    { return c.rows }
func (c *answerCursor) Buffered() bool { return true }
func (c *answerCursor) Close()         { c.pos = len(c.ans.Tuples) }

// cursorComp is one component's contribution to the streamed product:
// its distinct partial tuples sorted in output order, plus the
// permutation mapping tuple columns to final row positions.
type cursorComp struct {
	tuples [][]graph.NodeID
	// src[j] is the tuple column holding the j-th smallest of this
	// component's output positions; dst[j] is that final row position.
	src []int
	dst []int
}

// productCursor enumerates the cross-component Cartesian product
// lazily, in canonical order, via an odometer over per-component
// sorted tuple lists. Validity rests on two invariants established by
// newProductCursor:
//
//   - each component's tuples are sorted by the projection onto final
//     row positions, ascending;
//   - the components' position blocks do not interleave (every
//     position of comps[i] precedes every position of comps[i+1]),
//     with comps ordered most-significant first.
//
// Fixed singleton outputs occupy constant columns and cannot affect
// ordering. Per-component lists are distinct, and two different index
// combinations differ in some component — hence at some row position
// that component owns — so the product needs no deduplication.
type productCursor struct {
	comps []cursorComp
	idx   []int
	row   []graph.NodeID // reused result buffer, singles pre-filled
	out   []int

	ctx  context.Context
	err  error
	ops  int
	done bool
	rows int64
}

// newProductCursor assembles a streaming cursor from enumeration
// partials, or returns nil when the components' output positions
// interleave (the caller falls back to materializing). ctx, when
// cancellable, aborts long drains between rows.
func newProductCursor(ctx context.Context, out []int, pt partials) *productCursor {
	posOf := make(map[int]int, len(out))
	for i, u := range out {
		posOf[u] = i
	}
	row := make([]graph.NodeID, len(out))
	for u, v := range pt.singles {
		row[posOf[u]] = v
	}
	comps := make([]cursorComp, len(pt.perComp))
	for i, cols := range pt.compOuts {
		src := make([]int, len(cols))
		for j := range src {
			src[j] = j
		}
		sort.Slice(src, func(a, b int) bool {
			return posOf[cols[src[a]]] < posOf[cols[src[b]]]
		})
		dst := make([]int, len(cols))
		for j, s := range src {
			dst[j] = posOf[cols[s]]
		}
		comps[i] = cursorComp{tuples: pt.perComp[i], src: src, dst: dst}
	}
	// Most-significant component first: ascending smallest position.
	sort.Slice(comps, func(a, b int) bool {
		return comps[a].dst[0] < comps[b].dst[0]
	})
	// Streamability: position blocks must be contiguous. Query subtrees
	// over preorder node ids always are; randomly-wired test queries can
	// interleave, and then no odometer order matches the canonical one.
	for i := 1; i < len(comps); i++ {
		prev := comps[i-1]
		if prev.dst[len(prev.dst)-1] > comps[i].dst[0] {
			return nil
		}
	}
	for i := range comps {
		c := comps[i]
		sort.Slice(c.tuples, func(a, b int) bool {
			x, y := c.tuples[a], c.tuples[b]
			for _, s := range c.src {
				if x[s] != y[s] {
					return x[s] < y[s]
				}
			}
			return false
		})
	}
	pc := &productCursor{
		comps: comps,
		idx:   make([]int, len(comps)),
		row:   row,
		out:   out,
	}
	if ctx != nil && ctx.Done() != nil {
		pc.ctx = ctx
	}
	return pc
}

func (c *productCursor) Out() []int { return c.out }

func (c *productCursor) Next() ([]graph.NodeID, bool) {
	if c.done {
		return nil, false
	}
	if c.ctx != nil {
		if c.err != nil {
			c.done = true
			return nil, false
		}
		c.ops++
		if c.ops&(opsPerCtxCheck-1) == 0 {
			if err := c.ctx.Err(); err != nil {
				c.err = err
				c.done = true
				return nil, false
			}
		}
	}
	for i, comp := range c.comps {
		t := comp.tuples[c.idx[i]]
		for j, s := range comp.src {
			c.row[comp.dst[j]] = t[s]
		}
	}
	// Advance the odometer, least-significant component first.
	carry := true
	for i := len(c.comps) - 1; carry && i >= 0; i-- {
		c.idx[i]++
		if c.idx[i] < len(c.comps[i].tuples) {
			carry = false
		} else {
			c.idx[i] = 0
		}
	}
	c.done = carry // carried past the most significant: product exhausted
	c.rows++
	return c.row, true
}

func (c *productCursor) Err() error     { return c.err }
func (c *productCursor) Rows() int64    { return c.rows }
func (c *productCursor) Buffered() bool { return false }
func (c *productCursor) Close()         { c.done = true }

// EvalCursor evaluates q and returns a Cursor over its canonical-order
// results instead of a materialized answer. Pruning and per-component
// collection run eagerly (their cost is unavoidable and they bound the
// intermediate size per the paper); only the cross-component product —
// where result counts explode — streams. The pooled evaluation context
// is released before EvalCursor returns: the cursor owns freshly
// allocated partials only, so abandoning it early leaks nothing.
//
// Stats mirror EvalStatsCtx except Results, which stays 0 on a lazy
// cursor — the result count is unknown until it drains (use
// Cursor.Rows). ctx
// cancellation aborts both the evaluation and, later, the drain. Safe
// for concurrent use.
func (e *Engine) EvalCursor(ctx context.Context, q *core.Query) (Cursor, Stats, error) {
	var cur Cursor
	var results int64 // known before the drain only on the buffered fallback
	st, err := e.evaluate(ctx, q, false, nil, func(outs []int, pt partials, tick func() bool) {
		ans := core.NewAnswer(outs)
		if !pt.empty {
			if pc := newProductCursor(ctx, ans.Out, pt); pc != nil {
				cur = pc
				return
			}
			// Interleaved component positions: no odometer order is
			// canonical. Materialize through the eager path and stream
			// from the answer.
			CombineComponents(ans, pt.singles, pt.perComp, pt.compOuts, tick)
			results = int64(ans.Len())
		}
		cur = NewAnswerCursor(ans)
	})
	if err != nil {
		return nil, st, err
	}
	st.Results = results
	return cur, st, nil
}

package gtea

import (
	"cmp"
	"context"
	"slices"

	"gtpq/internal/core"
	"gtpq/internal/graph"
)

// Cursor is a pull-based iterator over one query's result tuples in
// canonical order: lexicographically sorted and distinct. Eval's
// answer is exactly such a cursor, collected. Streaming layers
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
	// up front (the sorted rows of an interleaved product, or an
	// answer-backed cursor) rather than enumerating lazily. A buffered
	// cursor's rows stay valid after the following Next.
	Buffered() bool
	// Close releases the cursor's resources. Safe to call at any point,
	// including before the drain finishes, and more than once.
	Close()
}

// Collect drains c to completion and returns the rows as an Answer
// (tuples copied, in c's order). Every materialized answer is Collect
// over an EvalCursor; the internal/equiv driver checks what it returns
// against the core.EvalNaive oracle.
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

// answerCursor streams a materialized canonical answer: the sorted
// rows of an interleaved product (newCursor), or a cached answer the
// server pages through.
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

// productCursor enumerates the cross-component Cartesian product — the
// §4.3 step that combines the independent components of the shrunk
// prime subtree — with an odometer over per-component tuple lists. It
// is the only code that forms that product. Its rows come out in
// canonical order when two invariants hold, which newCursor
// establishes whenever it can:
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

// newCursor returns the cursor over the product of pt's components,
// with columns out (ascending). It is the lazy odometer itself unless
// the components' output positions interleave: then no odometer order
// is canonical, and the odometer's rows are drained, sorted and served
// as a Buffered cursor. ctx, when non-nil, aborts long drains between
// rows; a drain cancelled here leaves the error in the cursor's Err.
func newCursor(ctx context.Context, out []int, pt partials) Cursor {
	pc := &productCursor{out: out, ctx: ctx, done: pt.empty}
	if pt.empty {
		return pc
	}
	posOf := make([]int, out[len(out)-1]+1)
	for i, u := range out {
		posOf[u] = i
	}
	pc.row = make([]graph.NodeID, len(out))
	for u, v := range pt.singles {
		pc.row[posOf[u]] = v
	}
	pc.comps = make([]cursorComp, len(pt.perComp))
	pc.idx = make([]int, len(pt.perComp))
	for i, cols := range pt.compOuts {
		src := make([]int, len(cols))
		for j := range src {
			src[j] = j
		}
		slices.SortFunc(src, func(a, b int) int { return posOf[cols[a]] - posOf[cols[b]] })
		dst := make([]int, len(cols))
		for j, s := range src {
			dst[j] = posOf[cols[s]]
		}
		pc.comps[i] = cursorComp{tuples: pt.perComp[i], src: src, dst: dst}
	}
	// Most-significant component first: ascending smallest position.
	slices.SortFunc(pc.comps, func(a, b cursorComp) int { return a.dst[0] - b.dst[0] })
	// Query subtrees over preorder node ids never interleave; randomly
	// wired queries can.
	for i := 1; i < len(pc.comps); i++ {
		if prev := pc.comps[i-1]; prev.dst[len(prev.dst)-1] > pc.comps[i].dst[0] {
			ans, err := Collect(pc)
			if err != nil {
				return pc
			}
			slices.SortFunc(ans.Tuples, core.CompareTuples)
			return NewAnswerCursor(ans)
		}
	}
	for _, c := range pc.comps {
		slices.SortFunc(c.tuples, func(x, y []graph.NodeID) int {
			for _, s := range c.src {
				if x[s] != y[s] {
					return cmp.Compare(x[s], y[s])
				}
			}
			return 0
		})
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
// results. Pruning and per-component collection run eagerly (their
// cost is unavoidable and they bound the intermediate size per the
// paper); only the cross-component product — where result counts
// explode — streams, unless its output positions interleave (see
// newCursor). The pooled evaluation context is released before
// EvalCursor returns: the cursor owns freshly allocated partials only,
// so abandoning it early leaks nothing.
//
// Stats mirror EvalStatsCtx except Results, which stays 0 — the
// result count is known once the cursor drains (Cursor.Rows) — and
// TotalTime, which excludes the drain. ctx cancellation aborts both
// the evaluation and, later, the drain. Safe for concurrent use.
func (e *Engine) EvalCursor(ctx context.Context, q *core.Query) (Cursor, Stats, error) {
	var cur Cursor
	st, err := e.evaluate(ctx, q, false, nil, func(c Cursor) error {
		cur = c
		return c.Err()
	})
	if err != nil {
		return nil, st, err
	}
	return cur, st, nil
}

package gtea

import (
	"context"

	"gtpq/internal/core"
	"gtpq/internal/graph"
)

// EvalSeededStatsCtx evaluates q with the root's candidate set
// restricted to seed: the answer contains exactly the output tuples of
// embeddings whose root image lies in seed ∩ cand(root). Everything
// else — pruning, planning, enumeration, cancellation — behaves like
// EvalStatsCtx.
//
// The standing-query matcher (internal/sub) uses this for incremental
// maintenance after an additive delta batch: for a conjunctive (no
// negation) query, every newly-created result tuple has an embedding
// whose root either is a freshly added vertex or reaches the source of
// an added edge, so evaluating with the root seeded to that affected
// set and diffing against the previous result yields exactly the new
// tuples without re-enumerating the unaffected ones.
//
// An empty (non-nil or nil) seed returns an empty answer. Safe for
// concurrent use.
func (e *Engine) EvalSeededStatsCtx(ctx context.Context, q *core.Query, seed []graph.NodeID) (*core.Answer, Stats, error) {
	return e.collect(ctx, q, true, seed)
}

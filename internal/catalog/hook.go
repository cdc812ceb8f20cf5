package catalog

import (
	"gtpq/internal/delta"
	"gtpq/internal/gtea"
)

// ApplyEvent describes one committed catalog mutation: an applied
// delta batch, or a compaction fold. Events for one dataset are
// delivered in generation order (the hook fires under the dataset's
// delta-log mutex, which serializes every mutation).
type ApplyEvent struct {
	// Name is the mutated dataset.
	Name string
	// Gen is the generation of the entry the mutation swapped in —
	// strictly greater than every earlier event's for this dataset.
	Gen uint64
	// Batch is the applied mutation (zero for compaction events, which
	// leave the logical graph unchanged).
	Batch delta.Batch
	// Compacted marks a fold: pending deltas became the new frozen
	// base. The served graph is logically identical before and after.
	Compacted bool
	// Engine serves the post-batch graph (Engine.G), whatever the
	// base's shard count: the overlay engine over the extended graph.
	// Nil for compaction events.
	Engine *gtea.Engine
	// DS is an acquired handle on the post-mutation dataset; the hook's
	// consumer MUST Release it (a non-blocking hook hands it to
	// whatever goroutine does the real work).
	DS *Dataset
}

// SetApplyHook installs fn to observe every subsequent ApplyDelta and
// Compact commit. Standing-query subscriptions (internal/sub) hang off
// this. fn runs while the dataset's delta-log mutex is held — it must
// only enqueue (never evaluate or block), or every writer to that
// dataset stalls behind it. fn owns ev.DS and must arrange its
// Release. Pass nil to uninstall.
func (c *Catalog) SetApplyHook(fn func(ApplyEvent)) {
	c.mu.Lock()
	c.applyHook = fn
	c.mu.Unlock()
}

// notifyApply fires the hook (if any) with ev — its Batch, Compacted
// and Engine filled by the caller — completed by a freshly acquired
// handle on next. Called under the dataset's dlog mutex, after
// swapEntry, so hook invocations for one dataset observe strictly
// increasing generations in order.
func (c *Catalog) notifyApply(name string, next *entry, ev ApplyEvent) {
	c.mu.Lock()
	fn := c.applyHook
	if fn != nil {
		next.refs++ // the event's handle
	}
	c.mu.Unlock()
	if fn == nil {
		return
	}
	ev.Name, ev.Gen, ev.DS = name, next.gen, next.handle()
	fn(ev)
}

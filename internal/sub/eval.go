package sub

import (
	"context"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/obs"
)

// initSub runs a new subscription's first full evaluation on its
// dataset worker. Ordering is safe against concurrently queued apply
// events: the handle acquired here reflects a generation at least as
// fresh as any event already in the queue, and applyToSub skips events
// at or below the generation recorded now.
func (r *Registry) initSub(s *Subscription) {
	ds, err := r.cat.Acquire(s.key.dataset)
	if err != nil {
		r.failSub(s, err)
		return
	}
	defer ds.Release()
	ans, _, err := ds.Engine.EvalStatsCtx(context.Background(), s.q)
	if err != nil {
		r.failSub(s, err)
		return
	}
	s.mu.Lock()
	s.ready = true
	s.result = ans
	s.gen = ds.Generation
	s.ringFloor = ds.Generation
	for c := range s.clients {
		if c.pending {
			c.pending = false
			s.attachEventsLocked(c, c.resumeFrom)
		}
	}
	s.mu.Unlock()
}

// applyToSub maintains one subscription across one committed catalog
// mutation: advance-only for compactions and skippable batches,
// otherwise re-evaluate (delta-restricted or full), diff against the
// stored result, and publish a delta event when anything changed.
func (r *Registry) applyToSub(s *Subscription, ev catalog.ApplyEvent, enqueued time.Time) {
	s.mu.Lock()
	if !s.ready || s.err != nil || s.dead || ev.Gen <= s.gen {
		s.mu.Unlock()
		return
	}
	prev := s.result
	s.mu.Unlock()

	if ev.Compacted {
		// The fold left the logical graph unchanged; the subscription
		// hands over to the new base by advancing its high-water mark.
		s.mu.Lock()
		if ev.Gen > s.gen {
			s.gen = ev.Gen
		}
		s.mu.Unlock()
		return
	}

	// Trace the maintenance work like a query: the spans land in the
	// slowlog when the notification evaluation crosses the threshold.
	var tr *obs.Trace
	ctx := context.Background()
	if r.cfg.SlowLog != nil && r.cfg.SlowThreshold > 0 {
		tr = obs.NewTrace("sub")
		tr.Root().Attr("dataset", s.key.dataset)
		ctx = obs.ContextWithTrace(ctx, tr)
	}
	start := time.Now()

	sp := tr.Start("decide")
	dec := decide(s, ev, seedBudget)
	sp.Attr("mode", dec.mode.String())
	sp.AttrInt("seed", int64(len(dec.seed)))
	sp.End()

	var added, removed [][]graph.NodeID
	var next *core.Answer
	switch dec.mode {
	case modeSkip:
		r.skips.Inc()
		s.mu.Lock()
		s.gen = ev.Gen
		s.mu.Unlock()
		tr.Finish()
		return
	case modeRestricted:
		r.evals.With("restricted").Inc()
		restricted, _, err := ev.Engine.EvalSeededStatsCtx(ctx, s.q, dec.seed)
		if err != nil {
			tr.Finish()
			return // background ctx: unreachable; keep prev, retry next batch
		}
		added = diffTuples(restricted, prev)
		next = mergeAdded(prev, added)
	case modeFull:
		r.evals.With("full").Inc()
		full, _, err := ev.DS.Engine.EvalStatsCtx(ctx, s.q)
		if err != nil {
			tr.Finish()
			return
		}
		added = diffTuples(full, prev)
		removed = diffTuples(prev, full)
		next = full
	}
	tr.Finish()
	elapsed := time.Since(start)
	if tr != nil && elapsed >= r.cfg.SlowThreshold {
		r.cfg.SlowLog.Add(obs.SlowEntry{
			Time:       time.Now(),
			RequestID:  "sub",
			Dataset:    s.key.dataset,
			Query:      s.key.canon,
			Generation: ev.Gen,
			Millis:     float64(elapsed.Microseconds()) / 1000,
			Rows:       int64(len(added) + len(removed)),
			Stages:     tr.Stages(),
		})
	}

	s.mu.Lock()
	s.result = next
	s.gen = ev.Gen
	if len(added)+len(removed) > 0 {
		evt := Event{ID: ev.Gen, Type: "delta", Columns: s.cols, Added: added, Removed: removed}
		s.pushRingLocked(evt)
		for c := range s.clients {
			if !c.pending {
				s.deliverLocked(c, evt)
			}
		}
		r.notifs.Inc()
		r.latency.Observe(time.Since(enqueued).Seconds())
	}
	s.mu.Unlock()
}

package sub

import (
	"sync"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/core"
	"gtpq/internal/obs"
)

// Registry owns every standing query over one catalog: the
// subscription map, the per-dataset apply workers, and the catalog
// hook feeding them.
//
// Lock order: r.mu may be held while taking a Subscription's mu (the
// janitor does); the reverse is forbidden — paths that hold s.mu
// release it before touching r.mu.
type Registry struct {
	cat *catalog.Catalog
	cfg Config

	mu      sync.Mutex
	subs    map[subKey]*Subscription
	workers map[string]*worker
	clients int
	closed  bool
	stopGC  chan struct{}

	active  *obs.Gauge
	notifs  *obs.Counter
	skips   *obs.Counter
	evals   *obs.CounterVec
	dropped *obs.Counter
	latency *obs.Histogram
}

// New builds a registry over cat and installs its apply hook; there
// should be at most one registry per catalog. Call Close before
// shutting the process down so attached SSE handlers unblock.
func New(cat *catalog.Catalog, cfg Config) *Registry {
	cfg = cfg.withDefaults()
	r := &Registry{
		cat:     cat,
		cfg:     cfg,
		subs:    make(map[subKey]*Subscription),
		workers: make(map[string]*worker),
		stopGC:  make(chan struct{}),
	}
	reg := cfg.Registry
	r.active = reg.Gauge("gtpq_subs_active",
		"Standing-query subscriptions currently registered (distinct (dataset, query) pairs, shared across attached clients).")
	reg.GaugeFunc("gtpq_sub_clients", "Attached standing-query client streams (what -max-subs caps).",
		func() float64 { return float64(r.Stats().Clients) })
	r.notifs = reg.Counter("gtpq_sub_notifications_total",
		"Standing-query notification events published (non-empty result diffs after an applied delta batch).")
	r.skips = reg.Counter("gtpq_sub_skips_total",
		"Applied delta batches skipped per subscription without re-evaluation (no candidate set touches the changed vertices).")
	r.evals = reg.CounterVec("gtpq_sub_evals_total",
		"Standing-query re-evaluations by mode (restricted: delta-seeded root; full: complete re-run).", "mode")
	r.dropped = reg.Counter("gtpq_sub_dropped_total",
		"Standing-query notifications dropped on slow consumers (each run is summarized by a gap event plus snapshot).")
	r.latency = reg.Histogram("gtpq_sub_notify_seconds",
		"Latency from delta apply to subscriber notification delivery.", obs.DefLatencyBuckets)
	cat.SetApplyHook(r.onApply)
	go r.janitor()
	return r
}

// Subscribe attaches a client stream for q on the named dataset.
// lastEventID is the client's resume position (0 for a fresh attach):
// when the subscription's replay ring still covers it, the client
// receives only the missed delta events; otherwise its first event is
// a full snapshot. The returned client must be Closed.
func (r *Registry) Subscribe(dataset string, q *core.Query, lastEventID uint64) (*Client, error) {
	// Validate the dataset up front so callers get a synchronous
	// "unknown dataset" instead of a silently dead stream.
	ds, err := r.cat.Acquire(dataset)
	if err != nil {
		return nil, err
	}
	ds.Release()

	canon := canonical(q)
	key := subKey{dataset: dataset, canon: canon}
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return nil, ErrClosed
		}
		if r.clients >= r.cfg.MaxSubs {
			r.mu.Unlock()
			return nil, ErrTooManySubs
		}
		s := r.subs[key]
		isNew := s == nil
		if isNew {
			s = newSubscription(r, key, q)
			r.subs[key] = s
			r.active.Set(int64(len(r.subs)))
		}
		w := r.workers[dataset]
		if w == nil {
			w = newWorker(r, dataset)
			r.workers[dataset] = w
		}
		r.clients++
		r.mu.Unlock()

		c := &Client{sub: s, ch: make(chan Event, r.cfg.Buffer)}
		s.mu.Lock()
		if s.dead {
			// Lost a race with the janitor (or a failed init) between
			// the map lookup and here; retry against a fresh entry.
			s.mu.Unlock()
			r.mu.Lock()
			r.clients--
			r.mu.Unlock()
			continue
		}
		s.clients[c] = struct{}{}
		if s.ready {
			s.attachEventsLocked(c, lastEventID)
		} else {
			c.pending = true
			c.resumeFrom = lastEventID
		}
		s.mu.Unlock()
		if isNew {
			w.enqueue(task{kind: taskInit, sub: s})
		}
		return c, nil
	}
}

// detach removes a client (Client.Close).
func (r *Registry) detach(c *Client) {
	s := c.sub
	s.mu.Lock()
	_, attached := s.clients[c]
	if attached {
		delete(s.clients, c)
		if len(s.clients) == 0 {
			s.lastDetach = time.Now()
		}
		close(c.ch)
	}
	s.mu.Unlock()
	if attached {
		r.mu.Lock()
		r.clients--
		r.mu.Unlock()
	}
}

// onApply is the catalog hook: it runs under the dataset's delta-log
// mutex, so it only routes the event to the dataset's worker queue (or
// drops it when nothing subscribes to the dataset).
func (r *Registry) onApply(ev catalog.ApplyEvent) {
	r.mu.Lock()
	w := r.workers[ev.Name]
	r.mu.Unlock()
	if w == nil {
		ev.DS.Release()
		return
	}
	w.enqueue(task{kind: taskApply, ev: ev, at: time.Now()})
}

// subsFor snapshots the live subscriptions of one dataset.
func (r *Registry) subsFor(dataset string) []*Subscription {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*Subscription
	for k, s := range r.subs {
		if k.dataset == dataset {
			out = append(out, s)
		}
	}
	return out
}

// failSub terminally fails a subscription (initial evaluation error):
// every attached client's stream is closed and the subscription is
// removed so a later Subscribe can retry cleanly.
func (r *Registry) failSub(s *Subscription, err error) {
	s.mu.Lock()
	s.ready, s.err, s.dead = true, err, true
	clients := s.clients
	s.clients = make(map[*Client]struct{})
	s.mu.Unlock()

	r.mu.Lock()
	if r.subs[s.key] == s {
		delete(r.subs, s.key)
		r.active.Set(int64(len(r.subs)))
	}
	r.clients -= len(clients)
	r.mu.Unlock()
	for c := range clients {
		close(c.ch)
	}
}

// janitor periodically retires subscriptions idle past Retain and
// workers whose dataset has no subscriptions left.
func (r *Registry) janitor() {
	period := r.cfg.Retain / 2
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-r.stopGC:
			return
		case <-t.C:
			r.gc(time.Now())
		}
	}
}

// gc removes idle subscriptions and stops orphaned workers.
func (r *Registry) gc(now time.Time) {
	var stopped []*worker
	r.mu.Lock()
	for k, s := range r.subs {
		s.mu.Lock()
		idle := s.ready && len(s.clients) == 0 && now.Sub(s.lastDetach) >= r.cfg.Retain
		if idle {
			s.dead = true
		}
		s.mu.Unlock()
		if idle {
			delete(r.subs, k)
		}
	}
	live := make(map[string]bool)
	for k := range r.subs {
		live[k.dataset] = true
	}
	for name, w := range r.workers {
		if !live[name] {
			delete(r.workers, name)
			stopped = append(stopped, w)
		}
	}
	r.active.Set(int64(len(r.subs)))
	r.mu.Unlock()
	for _, w := range stopped {
		w.stop()
	}
}

// Close shuts the registry down: workers stop, every client stream is
// closed (unblocking SSE handlers so the HTTP server can drain), and
// further Subscribes fail with ErrClosed. The catalog hook stays
// installed but degrades to releasing handles immediately.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.stopGC)
	subs := make([]*Subscription, 0, len(r.subs))
	for _, s := range r.subs {
		subs = append(subs, s)
	}
	workers := make([]*worker, 0, len(r.workers))
	for _, w := range r.workers {
		workers = append(workers, w)
	}
	r.subs = make(map[subKey]*Subscription)
	r.workers = make(map[string]*worker)
	r.clients = 0
	r.mu.Unlock()

	for _, w := range workers {
		w.stop()
	}
	for _, s := range subs {
		s.mu.Lock()
		s.dead = true
		clients := s.clients
		s.clients = make(map[*Client]struct{})
		s.mu.Unlock()
		for c := range clients {
			close(c.ch)
		}
	}
	r.active.Set(0)
}

// Stats snapshots the registry's counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	st := Stats{ActiveSubs: len(r.subs), Clients: r.clients}
	r.mu.Unlock()
	st.Notifications = r.notifs.Load()
	st.Skips = r.skips.Load()
	st.RestrictedEvals = r.evals.With("restricted").Load()
	st.FullEvals = r.evals.With("full").Load()
	st.Dropped = r.dropped.Load()
	return st
}

// Sync blocks until the named dataset's worker has drained every event
// enqueued before the call (a barrier for tests and benchmarks that
// need "all notifications for my updates have been delivered").
// Returns immediately when nothing subscribes to the dataset.
func (r *Registry) Sync(dataset string) {
	r.mu.Lock()
	w := r.workers[dataset]
	r.mu.Unlock()
	if w == nil {
		return
	}
	done := make(chan struct{})
	w.enqueue(task{kind: taskBarrier, done: done})
	<-done
}

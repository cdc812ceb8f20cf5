package sub

import (
	"errors"
	"sync"
	"time"

	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/obs"
	"gtpq/internal/qlang"
)

// Config tunes a subscription registry; zero values take defaults.
type Config struct {
	// MaxSubs caps concurrently attached client streams (not distinct
	// subscriptions: N clients sharing one query count N). Subscribe
	// returns ErrTooManySubs beyond it. Default 1024.
	MaxSubs int
	// Buffer is the per-client event buffer; a client that falls this
	// many undrained events behind starts dropping (gap + snapshot on
	// recovery). Default 16.
	Buffer int
	// Retain is how long a subscription with no attached clients
	// lingers — keeping its stored result and replay ring warm for a
	// Last-Event-ID resume — before the janitor removes it. Default 2m.
	Retain time.Duration
	// RingSize bounds the per-subscription replay ring of recent delta
	// events. Default 64.
	RingSize int
	// SeedBudget bounds the BFS vertex visits the per-batch skip/seed
	// analysis may spend; past it the matcher stops analyzing and falls
	// back to a full re-evaluation. Default 4096.
	SeedBudget int
	// Registry receives the gtpq_sub* metric families; nil creates a
	// private registry.
	Registry *obs.Registry
	// SlowLog, when non-nil with SlowThreshold > 0, records
	// notification evaluations at least SlowThreshold slow, with their
	// per-stage trace timings.
	SlowLog       *obs.SlowLog
	SlowThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxSubs <= 0 {
		c.MaxSubs = 1024
	}
	if c.Buffer <= 0 {
		c.Buffer = 16
	}
	if c.Retain <= 0 {
		c.Retain = 2 * time.Minute
	}
	if c.RingSize <= 0 {
		c.RingSize = 64
	}
	if c.SeedBudget <= 0 {
		c.SeedBudget = 4096
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// ErrTooManySubs rejects a Subscribe beyond Config.MaxSubs; servers
// map it to 429.
var ErrTooManySubs = errors.New("sub: too many active subscriptions")

// ErrClosed rejects Subscribe on a closed registry.
var ErrClosed = errors.New("sub: registry closed")

// Event is one notification on a subscription stream. ID is the
// catalog generation the event reflects — the SSE event id clients
// hand back as Last-Event-ID to resume.
type Event struct {
	ID   uint64 `json:"-"`
	Type string `json:"-"` // "snapshot", "delta", or "gap"
	// Columns names the output query nodes, one per tuple position
	// (same order as /query responses).
	Columns []string `json:"columns,omitempty"`
	// Rows is the full current result (snapshot events).
	Rows [][]graph.NodeID `json:"rows,omitempty"`
	// Added and Removed are the tuple-level change of a delta event.
	// Removed can only be non-empty for non-conjunctive queries —
	// additive updates never retract a match of a negation-free query.
	Added   [][]graph.NodeID `json:"added,omitempty"`
	Removed [][]graph.NodeID `json:"removed,omitempty"`
	// Dropped is a gap event's count of notifications this client
	// missed under backpressure; a snapshot event follows immediately
	// and supersedes them.
	Dropped int `json:"dropped,omitempty"`
}

// subKey identifies one shared subscription.
type subKey struct {
	dataset string
	canon   string
}

// Subscription is the shared standing-query state for every client
// attached to one (dataset, canonical query) pair.
type Subscription struct {
	r    *Registry
	key  subKey
	q    *core.Query
	conj bool     // conjunctive: additive deltas only add matches
	cols []string // output column names

	mu     sync.Mutex
	ready  bool         // initial evaluation finished
	err    error        // terminal failure (subscription removed)
	dead   bool         // removed from the registry; do not attach
	result *core.Answer // current canonical result
	gen    uint64       // generation result reflects (high-water mark)
	// ring holds recent delta events (ascending ID) for Last-Event-ID
	// replay; ringFloor is the generation up to which history has been
	// evicted — a resume from a generation >= ringFloor replays deltas,
	// anything older resets with a snapshot.
	ring      []Event
	ringFloor uint64
	clients   map[*Client]struct{}
	// lastDetach timestamps the drop to zero clients (janitor input).
	lastDetach time.Time
}

// Client is one attached event stream.
type Client struct {
	sub *Subscription
	ch  chan Event
	// pending marks a client attached before the initial evaluation
	// finished; resumeFrom is its Last-Event-ID for when it does.
	pending    bool
	resumeFrom uint64
	gapped     bool
	dropped    int
	closeOnce  sync.Once
}

// Events is the client's notification stream; it is closed when the
// client detaches, the subscription fails, or the registry shuts down.
func (c *Client) Events() <-chan Event { return c.ch }

// Close detaches the client, freeing its buffer and (once the last
// client of a subscription detaches and Config.Retain elapses) the
// subscription and dataset worker behind it. Idempotent.
func (c *Client) Close() { c.closeOnce.Do(func() { c.sub.r.detach(c) }) }

// newSubscription builds the shared state for key.
func newSubscription(r *Registry, key subKey, q *core.Query) *Subscription {
	s := &Subscription{
		r:       r,
		key:     key,
		q:       q,
		conj:    q.IsConjunctive(),
		clients: make(map[*Client]struct{}),
	}
	for _, u := range q.Outputs() {
		s.cols = append(s.cols, q.Nodes[u].Name)
	}
	return s
}

// snapshotLocked renders the current result as a snapshot event.
// Callers hold s.mu. The tuple slices are shared read-only: workers
// replace s.result wholesale, never mutate tuples in place.
func (s *Subscription) snapshotLocked() Event {
	ev := Event{ID: s.gen, Type: "snapshot", Columns: s.cols}
	if s.result != nil {
		ev.Rows = s.result.Tuples
	}
	if ev.Rows == nil {
		ev.Rows = [][]graph.NodeID{}
	}
	return ev
}

// pushRingLocked appends a delta event to the replay ring, evicting
// the oldest past RingSize. Callers hold s.mu.
func (s *Subscription) pushRingLocked(ev Event) {
	if len(s.ring) >= s.r.cfg.RingSize {
		s.ringFloor = s.ring[0].ID
		s.ring = append(s.ring[:0], s.ring[1:]...)
	}
	s.ring = append(s.ring, ev)
}

// deliverLocked hands one event to a client without ever blocking the
// worker: a full buffer flips the client into gapped mode, where
// events are counted as dropped until the buffer has room for the gap
// marker plus a superseding snapshot. Callers hold s.mu.
func (s *Subscription) deliverLocked(c *Client, ev Event) {
	if c.gapped {
		if cap(c.ch)-len(c.ch) >= 2 {
			c.ch <- Event{ID: s.gen, Type: "gap", Dropped: c.dropped}
			c.ch <- s.snapshotLocked()
			c.gapped = false
			c.dropped = 0
			return // the snapshot covers ev too
		}
		c.dropped++
		s.r.dropped.Inc()
		return
	}
	select {
	case c.ch <- ev:
	default:
		c.gapped = true
		c.dropped++
		s.r.dropped.Inc()
	}
}

// attachEventsLocked queues a just-attached (or just-readied) client's
// initial events: a replay of the deltas after its Last-Event-ID when
// the ring still covers that generation, a fresh snapshot otherwise.
// Callers hold s.mu.
func (s *Subscription) attachEventsLocked(c *Client, lastID uint64) {
	if lastID > 0 && lastID >= s.ringFloor && lastID <= s.gen {
		for _, ev := range s.ring {
			if ev.ID > lastID {
				s.deliverLocked(c, ev)
			}
		}
		return
	}
	s.deliverLocked(c, s.snapshotLocked())
}

// Stats is a point-in-time counter snapshot (tests, benchmark/,
// gtpq_sub_clients).
type Stats struct {
	ActiveSubs      int
	Clients         int
	Notifications   int64
	Skips           int64
	RestrictedEvals int64
	FullEvals       int64
	Dropped         int64
}

// canonical returns the canonical text of q — the subscription
// dedup/sharing key (same form the result cache keys on).
func canonical(q *core.Query) string { return qlang.Format(q) }

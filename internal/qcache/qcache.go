package qcache

import (
	"container/list"
	"context"
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"gtpq/internal/core"
)

// Key identifies one cacheable evaluation.
type Key struct {
	// Dataset is the catalog dataset name.
	Dataset string
	// Generation is the catalog entry generation the answer was computed
	// against; a hot reload bumps it, keying past every older entry.
	Generation uint64
	// Query is the canonical query text (qlang.Format output).
	Query string
	// Index is the reachability backend kind — different backends must
	// agree on answers, but cache entries never cross them so a backend
	// bug cannot hide behind the other's cached results.
	Index string
}

// numShards spreads lock contention; keys hash uniformly across shards
// and each shard holds an equal slice of the byte budget.
const numShards = 16

// entryOverhead approximates the bookkeeping bytes an entry costs
// beyond its key and tuples (list element, map bucket share, headers).
const entryOverhead = 128

// Source says where a Do result came from.
type Source int

const (
	// Computed: this caller ran the computation (a cache miss it led).
	Computed Source = iota
	// Hit: served from a cached entry.
	Hit
	// Coalesced: served by joining another caller's in-flight
	// computation (a miss that cost no evaluation).
	Coalesced
)

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evals     int64 // computations actually run
	Coalesced int64 // misses served by an in-flight leader
	Evictions int64
	Entries   int64
	Bytes     int64
	MaxBytes  int64
}

// dsCount accumulates one dataset's counters (aggregated across
// generations — the dataset's serving history, not one epoch's),
// exported as the gtpq_cache_dataset_* families.
type dsCount struct {
	hits, misses, bytes atomic.Int64
}

// entry is one cached answer.
type entry struct {
	key  Key
	ans  *core.Answer
	size int64
}

// flight is one in-progress computation; done is closed when ans/err
// are final.
type flight struct {
	done chan struct{}
	ans  *core.Answer
	err  error
}

// cshard is one lock domain: an LRU list (front = most recent) over a
// key table, plus the in-flight computations for keys hashing here.
type cshard struct {
	mu      sync.Mutex
	max     int64 // byte budget of this shard
	bytes   int64
	lru     list.List // of *entry
	table   map[Key]*list.Element
	flights map[Key]*flight
}

// Cache is a sharded, byte-bounded LRU of query answers. Safe for
// concurrent use. The zero value is not usable; call New.
type Cache struct {
	maxBytes int64
	seed     maphash.Seed
	shards   [numShards]cshard

	hits, misses, evals, coalesced, evictions atomic.Int64
	entries, bytes                            atomic.Int64

	dsMu sync.RWMutex
	ds   map[string]*dsCount
}

// New builds a cache holding at most maxBytes of answer data across all
// datasets. maxBytes must be positive.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		panic("qcache: non-positive byte budget")
	}
	c := &Cache{maxBytes: maxBytes, seed: maphash.MakeSeed(), ds: map[string]*dsCount{}}
	per := maxBytes / numShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.max = per
		s.table = map[Key]*list.Element{}
		s.flights = map[Key]*flight{}
	}
	return c
}

func (c *Cache) shard(k Key) *cshard {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(k.Dataset)
	h.WriteByte(0)
	h.WriteString(k.Query)
	h.WriteByte(0)
	h.WriteString(k.Index)
	var g [8]byte
	for i := 0; i < 8; i++ {
		g[i] = byte(k.Generation >> (8 * i))
	}
	h.Write(g[:])
	return &c.shards[h.Sum64()%numShards]
}

func (c *Cache) dsCount(dataset string) *dsCount {
	c.dsMu.RLock()
	d := c.ds[dataset]
	c.dsMu.RUnlock()
	if d != nil {
		return d
	}
	c.dsMu.Lock()
	defer c.dsMu.Unlock()
	if d = c.ds[dataset]; d == nil {
		d = &dsCount{}
		c.ds[dataset] = d
	}
	return d
}

// AnswerBytes estimates the memory an answer's tuples occupy: the
// Tuples array at its capacity, a 24-byte slice header a slot, plus
// each row's own allocation at its capacity, rounded up to the 8 bytes
// the allocator hands out at least. Lengths alone would miss the spare
// capacity append leaves, and a cache would hold well over its budget.
func AnswerBytes(ans *core.Answer) int64 {
	size := int64(cap(ans.Tuples)) * 24
	for _, t := range ans.Tuples {
		size += (int64(cap(t))*4 + 7) &^ 7
	}
	return size
}

func entrySize(k Key, ans *core.Answer) int64 {
	return int64(len(k.Dataset)+len(k.Query)+len(k.Index)) + AnswerBytes(ans) + entryOverhead
}

// Get returns the cached answer for k, bumping its recency. The
// returned answer is shared: callers must treat it as immutable.
func (c *Cache) Get(k Key) (*core.Answer, bool) {
	s := c.shard(k)
	s.mu.Lock()
	el, ok := s.table[k]
	if ok {
		s.lru.MoveToFront(el)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		c.dsCount(k.Dataset).misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.dsCount(k.Dataset).hits.Add(1)
	return el.Value.(*entry).ans, true
}

// Put inserts (or refreshes) the answer for k, evicting least-recently
// used entries until the shard is back under budget. Answers larger
// than a whole shard's budget are not cached — they would evict
// everything and still not fit. ans must be final and never mutated
// afterwards.
func (c *Cache) Put(k Key, ans *core.Answer) {
	size := entrySize(k, ans)
	s := c.shard(k)
	if size > s.max {
		return
	}
	d := c.dsCount(k.Dataset)
	s.mu.Lock()
	if el, ok := s.table[k]; ok {
		// Refresh in place (same key raced two computations).
		old := el.Value.(*entry)
		s.bytes += size - old.size
		c.bytes.Add(size - old.size)
		d.bytes.Add(size - old.size)
		old.ans, old.size = ans, size
		s.lru.MoveToFront(el)
	} else {
		s.table[k] = s.lru.PushFront(&entry{key: k, ans: ans, size: size})
		s.bytes += size
		c.bytes.Add(size)
		c.entries.Add(1)
		d.bytes.Add(size)
	}
	for s.bytes > s.max {
		el := s.lru.Back()
		if el == nil {
			break
		}
		ev := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.table, ev.key)
		s.bytes -= ev.size
		c.bytes.Add(-ev.size)
		c.entries.Add(-1)
		c.evictions.Add(1)
		evd := d
		if ev.key.Dataset != k.Dataset {
			evd = c.dsCount(ev.key.Dataset)
		}
		evd.bytes.Add(-ev.size)
	}
	s.mu.Unlock()
}

// Do returns the answer for k, computing it at most once across
// concurrent callers: a cached entry is a Hit; otherwise the first
// caller becomes the leader (Computed) and runs compute while the rest
// wait and share its result (Coalesced). A compute error — including a
// cancelled or deadline-exceeded evaluation — is returned only to the
// leader's waiters, is never cached, and releases the key so the next
// caller retries; ctx only governs how long THIS caller is willing to
// wait, it does not cancel a leader other callers are waiting on.
func (c *Cache) Do(ctx context.Context, k Key, compute func() (*core.Answer, error)) (*core.Answer, Source, error) {
	s := c.shard(k)
	for {
		s.mu.Lock()
		if el, ok := s.table[k]; ok {
			s.lru.MoveToFront(el)
			ans := el.Value.(*entry).ans
			s.mu.Unlock()
			c.hits.Add(1)
			c.dsCount(k.Dataset).hits.Add(1)
			return ans, Hit, nil
		}
		if f, ok := s.flights[k]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, Coalesced, ctx.Err()
			}
			if f.err != nil {
				// The leader failed (its deadline, not necessarily ours):
				// loop and retry — maybe as the new leader.
				if ctx.Err() != nil {
					return nil, Coalesced, ctx.Err()
				}
				continue
			}
			c.misses.Add(1)
			c.coalesced.Add(1)
			c.dsCount(k.Dataset).misses.Add(1)
			return f.ans, Coalesced, nil
		}
		f := &flight{done: make(chan struct{})}
		s.flights[k] = f
		s.mu.Unlock()
		c.misses.Add(1)
		c.dsCount(k.Dataset).misses.Add(1)
		c.evals.Add(1)

		// The flight must be unregistered and its waiters woken even if
		// compute panics — a leaked flight would wedge this key until
		// process restart, blocking every later caller. On a panic the
		// waiters see errComputePanicked and retry; the panic itself
		// propagates to this caller.
		completed := false
		defer func() {
			if !completed {
				f.ans, f.err = nil, errComputePanicked
			}
			s.mu.Lock()
			delete(s.flights, k)
			s.mu.Unlock()
			close(f.done)
		}()
		ans, err := compute()
		if err == nil && ans != nil {
			c.Put(k, ans)
		}
		f.ans, f.err = ans, err
		completed = true
		if err != nil {
			return nil, Computed, err
		}
		return ans, Computed, nil
	}
}

// errComputePanicked marks a flight whose computation panicked; it is
// only ever observed by waiters (who retry), never returned from Do.
var errComputePanicked = errors.New("qcache: computation panicked")

// Stats snapshots the global counters. Each field is read atomically;
// cross-field sums can be off by in-flight updates but never negative.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evals:     c.evals.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.entries.Load(),
		Bytes:     c.bytes.Load(),
		MaxBytes:  c.maxBytes,
	}
}

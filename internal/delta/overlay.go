package delta

import (
	"sync"

	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// Overlay answers strict reachability over base ∪ delta without
// touching the frozen base index: a path either stays entirely inside
// the base graph (delegated to the base index) or crosses at least one
// delta edge, in which case it decomposes as
//
//	u —base*→ tail(e₁) —e₁→ head(e₁) —base*→ tail(e₂) —e₂→ … —base*→ v
//
// with every —base*→ segment a (possibly empty) base-only path between
// base vertices, or an empty segment at a delta vertex (delta vertices
// have no base edges, so any path through one switches delta edges
// immediately). Reachability through deltas therefore reduces to: which
// delta edges can u's cone enter, which delta edges exit into v, and
// which delta edges reach which — the last being a fixed relation of
// the overlay, computed once per construction by a frontier search
// over the delta-edge hop graph and memoized as per-edge bitsets.
// A query then costs O(|delta edges|) base-index probes, bounded and
// independent of answer size, which is what keeps the unsnapshotted
// window cheap until compaction folds the delta into a fresh base.
//
// The overlay is exact — no false positives or negatives — so GTEA's
// negated predicates are as sound over a live dataset as over a frozen
// one. It is immutable after construction and charges all work to the
// caller's *reach.Stats sink, so one overlay serves any number of
// concurrent evaluations (applying a further batch builds a new
// overlay; the catalog hot-swaps engines per generation).
type Overlay struct {
	base  reach.ContourIndex
	baseN graph.NodeID // ids < baseN are base vertices
	extN  int          // total vertices including delta additions

	// Delta edge i goes tails[i] -> heads[i].
	tails, heads []graph.NodeID
	// closure[i] is the memoized delta-reachable edge set: bit j is set
	// iff a path starting with delta edge i can go on to traverse delta
	// edge j (including i itself).
	closure []bitrow

	words   int // words per bitrow
	scratch sync.Pool
}

// bitrow is one row of the edge-closure matrix.
type bitrow []uint64

// KindPrefix prefixes the overlay's reported index kind; the full kind
// is KindPrefix + base kind (e.g. "delta+threehop").
const KindPrefix = "delta+"

// NewOverlay wraps a base index (built for the first baseN vertex ids)
// with the delta edges of batches. extN is the extended vertex count;
// ids in [baseN, extN) are delta vertices the base index never sees.
// Construction performs O(E²) base probes for E delta edges to memoize
// the edge closure; compaction policy bounds E.
func NewOverlay(base reach.ContourIndex, baseN, extN int, batches []Batch) *Overlay {
	o := &Overlay{base: base, baseN: graph.NodeID(baseN), extN: extN}
	for i := range batches {
		for _, e := range batches[i].Edges {
			o.tails = append(o.tails, e.From)
			o.heads = append(o.heads, e.To)
		}
	}
	e := len(o.tails)
	o.words = (e + 63) >> 6
	o.scratch.New = func() interface{} { return make(bitrow, o.words) }
	if e == 0 {
		return o
	}

	// Hop adjacency: edge i can hand the path to edge j when head(i)
	// reaches-or-equals tail(j) through the base alone.
	var st reach.Stats
	adj := make([]bitrow, e)
	for i := 0; i < e; i++ {
		adj[i] = make(bitrow, o.words)
		for j := 0; j < e; j++ {
			if o.reachOrEq(o.heads[i], o.tails[j], &st) {
				adj[i].set(j)
			}
		}
	}
	// Frontier search from every edge over the hop graph (cycles are
	// fine: visited-set BFS).
	o.closure = make([]bitrow, e)
	queue := make([]int, 0, e)
	for i := 0; i < e; i++ {
		row := make(bitrow, o.words)
		row.set(i)
		queue = append(queue[:0], i)
		for len(queue) > 0 {
			cur := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for j := 0; j < e; j++ {
				if adj[cur].has(j) && !row.has(j) {
					row.set(j)
					queue = append(queue, j)
				}
			}
		}
		o.closure[i] = row
	}
	return o
}

func (r bitrow) set(i int)      { r[i>>6] |= 1 << (uint(i) & 63) }
func (r bitrow) has(i int) bool { return r[i>>6]&(1<<(uint(i)&63)) != 0 }

func (r bitrow) orInto(dst bitrow) {
	for w := range r {
		dst[w] |= r[w]
	}
}

func (r bitrow) intersects(other bitrow) bool {
	for w := range r {
		if r[w]&other[w] != 0 {
			return true
		}
	}
	return false
}

func (r bitrow) clear() {
	for w := range r {
		r[w] = 0
	}
}

// reachOrEq reports whether x reaches y through base edges alone, or
// x == y (an empty segment between two delta edges). Delta vertices
// have no base adjacency, so equality is their only base segment.
func (o *Overlay) reachOrEq(x, y graph.NodeID, st *reach.Stats) bool {
	if x == y {
		return true
	}
	if x < o.baseN && y < o.baseN {
		return o.base.ReachesSt(x, y, st)
	}
	return false
}

// Kind reports the overlay's kind: "delta+" + the base kind.
func (o *Overlay) Kind() string { return KindPrefix + o.base.Kind() }

// IndexSize is the base index size plus one element per delta edge.
func (o *Overlay) IndexSize() int { return o.base.IndexSize() + len(o.tails) }

// ReachesSt reports whether u strictly reaches v in base ∪ delta.
func (o *Overlay) ReachesSt(u, v graph.NodeID, st *reach.Stats) bool {
	if u < o.baseN && v < o.baseN && o.base.ReachesSt(u, v, st) {
		return true
	}
	e := len(o.tails)
	if e == 0 {
		return false
	}
	// Frontier in: every delta edge u's base cone can enter, closed
	// over the memoized hop closure.
	row := o.scratch.Get().(bitrow)
	defer func() { row.clear(); o.scratch.Put(row) }()
	any := false
	for i := 0; i < e; i++ {
		st.Lookups++
		if !row.has(i) && o.reachOrEq(u, o.tails[i], st) {
			o.closure[i].orInto(row)
			any = true
		}
	}
	if !any {
		return false
	}
	// Frontier out: does any reachable delta edge exit into v?
	for j := 0; j < e; j++ {
		st.Lookups++
		if row.has(j) && o.reachOrEq(o.heads[j], v, st) {
			return true
		}
	}
	return false
}

// PredContour summarizes S for "does v strictly reach some element of
// S" probes: the base contour of S's base members plus the delta edges
// from which S is reachable.
func (o *Overlay) PredContour(S []graph.NodeID, st *reach.Stats) reach.SetContour {
	return o.contour(S, false, st)
}

// SuccContour summarizes S for "does some element of S strictly reach
// v" probes: the base contour of S's base members plus the delta edges
// a path from S can traverse.
func (o *Overlay) SuccContour(S []graph.NodeID, st *reach.Stats) reach.SetContour {
	return o.contour(S, true, st)
}

// overlayContour is the overlay's summary of S in one direction. Merged
// down, some element of S reaches v; merged up, v reaches some element
// of S. Either holds iff it holds in the base (base), or some path
// between S and v crosses a marked delta edge, whose endpoint on v's
// side then connects to v: merged down, an edge a path from S can
// traverse, whose head reaches v; merged up, an edge a path into S can
// start with, whose tail v reaches.
type overlayContour struct {
	o      *Overlay
	down   bool
	base   reach.SetContour // nil when S has no base members
	marked bitrow           // nil when no delta edge connects to S
}

// contour merges S in direction down. A delta edge touches S when its
// endpoint on S's side — the tail when merged down, the head when
// merged up — is in S or connects to S through the base; the marked
// edges are those a path through a touching edge can use.
func (o *Overlay) contour(S []graph.NodeID, down bool, st *reach.Stats) *overlayContour {
	c := &overlayContour{o: o, down: down}
	baseS := make([]graph.NodeID, 0, len(S))
	inS := make(map[graph.NodeID]struct{}, len(S))
	for _, s := range S {
		inS[s] = struct{}{}
		if s < o.baseN {
			baseS = append(baseS, s)
		}
	}
	near := o.heads
	if down {
		near = o.tails
		if len(baseS) > 0 {
			c.base = o.base.SuccContour(baseS, st)
		}
	} else if len(baseS) > 0 {
		c.base = o.base.PredContour(baseS, st)
	}
	if len(near) == 0 {
		return c
	}
	touch := make(bitrow, o.words)
	anyTouch := false
	for i, x := range near {
		st.Lookups++
		if _, ok := inS[x]; ok || x < o.baseN && c.base != nil && c.base.Probe(x, st) {
			touch.set(i)
			anyTouch = true
		}
	}
	if !anyTouch {
		return c
	}
	// Down, a path from S goes on through the closure of every touching
	// edge; up, a path into S can start with every edge whose closure
	// holds a touching edge.
	c.marked = make(bitrow, o.words)
	for i := range near {
		if down && touch.has(i) {
			o.closure[i].orInto(c.marked)
		} else if !down && o.closure[i].intersects(touch) {
			c.marked.set(i)
		}
	}
	return c
}

func (c *overlayContour) Probe(v graph.NodeID, st *reach.Stats) bool {
	o := c.o
	if v < o.baseN && c.base != nil && c.base.Probe(v, st) {
		return true
	}
	if c.marked == nil {
		return false
	}
	for i := range o.tails {
		st.Lookups++
		if !c.marked.has(i) {
			continue
		}
		if c.down && o.reachOrEq(o.heads[i], v, st) || !c.down && o.reachOrEq(v, o.tails[i], st) {
			return true
		}
	}
	return false
}

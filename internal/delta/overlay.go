package delta

import (
	"math/bits"
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

	// deltaLabels counts the labels of delta-added vertices, so
	// LabelCount stays exact across generations without the base index
	// rescanning anything. Nil when no batch added vertices.
	deltaLabels map[string]int

	// Delta edge i goes tails[i] -> heads[i].
	tails, heads []graph.NodeID
	// closure[i] is the memoized delta-reachable edge set: bit j is set
	// iff a path starting with delta edge i can go on to traverse delta
	// edge j (including i itself).
	closure []bitrow

	words   int // words per bitrow
	scratch sync.Pool

	stats reach.Stats // sink for the legacy Index interface
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
		for _, nd := range batches[i].Nodes {
			if o.deltaLabels == nil {
				o.deltaLabels = make(map[string]int)
			}
			o.deltaLabels[nd.Label]++
		}
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

func (r bitrow) count() int {
	total := 0
	for _, w := range r {
		total += bits.OnesCount64(w)
	}
	return total
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

// Kind reports the overlay's registry kind: "delta+" + the base kind.
func (o *Overlay) Kind() string { return KindPrefix + o.base.Kind() }

// IndexSize is the base index size plus one element per delta edge.
func (o *Overlay) IndexSize() int { return o.base.IndexSize() + len(o.tails) }

// LabelCount is the base count plus the delta-added vertices carrying
// the label, so estimates stay exact across delta generations.
func (o *Overlay) LabelCount(label string) int {
	return o.base.LabelCount(label) + o.deltaLabels[label]
}

// DeltaEdges returns the number of delta edges the overlay carries.
func (o *Overlay) DeltaEdges() int { return len(o.tails) }

// Base returns the wrapped base index.
func (o *Overlay) Base() reach.ContourIndex { return o.base }

// Stats returns the overlay's own sink (the legacy Index contract).
func (o *Overlay) Stats() *reach.Stats { return &o.stats }

// Reaches is the legacy single-threaded entry point.
func (o *Overlay) Reaches(u, v graph.NodeID) bool { return o.ReachesSt(u, v, &o.stats) }

// ReachesSt reports whether u strictly reaches v in base ∪ delta.
func (o *Overlay) ReachesSt(u, v graph.NodeID, st *reach.Stats) bool {
	st.Queries++
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
// S" probes: the base contour of S's base members plus the set of
// delta edges from which S is reachable.
func (o *Overlay) PredContour(S []graph.NodeID, st *reach.Stats) reach.PredContour {
	pc := &predContour{o: o}
	pc.init(S, st)
	return pc
}

// SuccContour summarizes S for "does some element of S strictly reach
// v" probes (the dual of PredContour).
func (o *Overlay) SuccContour(S []graph.NodeID, st *reach.Stats) reach.SuccContour {
	sc := &succContour{o: o}
	sc.init(S, st)
	return sc
}

// predContour is the overlay's predecessor summary: v reaches S iff
// v base-reaches a base member (basePC) or v's base cone enters a
// delta edge whose closure contains an edge exiting into S (fromEdges).
type predContour struct {
	o      *Overlay
	basePC reach.PredContour // nil when S has no base members
	// fromEdges[i] set: entering delta edge i leads into S.
	fromEdges bitrow
	anyEdges  bool
}

func (pc *predContour) init(S []graph.NodeID, st *reach.Stats) {
	o := pc.o
	baseS := make([]graph.NodeID, 0, len(S))
	inS := make(map[graph.NodeID]struct{}, len(S))
	for _, s := range S {
		inS[s] = struct{}{}
		if s < o.baseN {
			baseS = append(baseS, s)
		}
	}
	if len(baseS) > 0 {
		pc.basePC = o.base.PredContour(baseS, st)
	}
	e := len(o.tails)
	if e == 0 {
		return
	}
	// exits[j]: delta edge j's head lands in S (directly or via a base
	// segment to a base member).
	exits := make(bitrow, o.words)
	anyExit := false
	for j := 0; j < e; j++ {
		st.Lookups++
		h := o.heads[j]
		if _, ok := inS[h]; ok {
			exits.set(j)
			anyExit = true
			continue
		}
		if h < o.baseN && pc.basePC != nil && pc.basePC.ReachedFrom(h, st) {
			exits.set(j)
			anyExit = true
		}
	}
	if !anyExit {
		return
	}
	pc.fromEdges = make(bitrow, o.words)
	for i := 0; i < e; i++ {
		if o.closure[i].intersects(exits) {
			pc.fromEdges.set(i)
			pc.anyEdges = true
		}
	}
}

func (pc *predContour) ReachedFrom(v graph.NodeID, st *reach.Stats) bool {
	o := pc.o
	if v < o.baseN && pc.basePC != nil && pc.basePC.ReachedFrom(v, st) {
		return true
	}
	if !pc.anyEdges {
		return false
	}
	for i := range o.tails {
		st.Lookups++
		if pc.fromEdges.has(i) && o.reachOrEq(v, o.tails[i], st) {
			return true
		}
	}
	return false
}

func (pc *predContour) Size() int {
	size := 0
	if pc.basePC != nil {
		size = pc.basePC.Size()
	}
	if pc.anyEdges {
		size += pc.fromEdges.count()
	}
	return size
}

// succContour is the dual: some element of S reaches v iff a base
// member base-reaches v (baseSC) or S's cone enters a delta edge whose
// closure contains an edge exiting into v (toEdges).
type succContour struct {
	o      *Overlay
	baseSC reach.SuccContour // nil when S has no base members
	// toEdges[j] set: delta edge j is traversable starting from S.
	toEdges  bitrow
	anyEdges bool
}

func (sc *succContour) init(S []graph.NodeID, st *reach.Stats) {
	o := sc.o
	baseS := make([]graph.NodeID, 0, len(S))
	inS := make(map[graph.NodeID]struct{}, len(S))
	for _, s := range S {
		inS[s] = struct{}{}
		if s < o.baseN {
			baseS = append(baseS, s)
		}
	}
	if len(baseS) > 0 {
		sc.baseSC = o.base.SuccContour(baseS, st)
	}
	e := len(o.tails)
	if e == 0 {
		return
	}
	entries := make(bitrow, o.words)
	anyEntry := false
	for i := 0; i < e; i++ {
		st.Lookups++
		t := o.tails[i]
		if _, ok := inS[t]; ok {
			entries.set(i)
			anyEntry = true
			continue
		}
		if t < o.baseN && sc.baseSC != nil && sc.baseSC.ReachesNode(t, st) {
			entries.set(i)
			anyEntry = true
		}
	}
	if !anyEntry {
		return
	}
	sc.toEdges = make(bitrow, o.words)
	for i := 0; i < e; i++ {
		if entries.has(i) {
			o.closure[i].orInto(sc.toEdges)
			sc.anyEdges = true
		}
	}
}

func (sc *succContour) ReachesNode(v graph.NodeID, st *reach.Stats) bool {
	o := sc.o
	if v < o.baseN && sc.baseSC != nil && sc.baseSC.ReachesNode(v, st) {
		return true
	}
	if !sc.anyEdges {
		return false
	}
	for j := range o.heads {
		st.Lookups++
		if sc.toEdges.has(j) && o.reachOrEq(o.heads[j], v, st) {
			return true
		}
	}
	return false
}

func (sc *succContour) Size() int {
	size := 0
	if sc.baseSC != nil {
		size = sc.baseSC.Size()
	}
	if sc.anyEdges {
		size += sc.toEdges.count()
	}
	return size
}

// registeredOverlay is what reach.Build("delta", ...) returns: an
// empty overlay over the default base, reporting the registry name it
// was built under (the registry contract every backend follows).
type registeredOverlay struct{ *Overlay }

func (registeredOverlay) Kind() string { return "delta" }

func init() {
	// The "delta" registry kind builds the default base backend and
	// wraps it with an empty overlay: semantically identical to the
	// base, it exists so the overlay participates in the backend
	// registry (cross-backend tests, -index flags) — live datasets get
	// their overlays from the catalog, which wraps the base index a
	// snapshot revives and reports the composite "delta+<base>" kind.
	reach.Register("delta", func(g *graph.Graph, opt reach.BuildOptions) (reach.ContourIndex, error) {
		base, err := reach.Build(reach.DefaultKind, g, opt)
		if err != nil {
			return nil, err
		}
		return registeredOverlay{NewOverlay(base, g.N(), g.N(), nil)}, nil
	})
}

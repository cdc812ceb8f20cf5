package reach

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"gtpq/internal/graph"
)

// TC is a bitset transitive closure over the SCC condensation. It
// doubles as the ground-truth oracle for the other indexes and as a
// engine backend for mid-sized graphs: contour probes reduce
// to word-parallel row/mask intersections. Memory is quadratic in the
// SCC count, so construction refuses graphs beyond a safety limit.
//
// Like ThreeHop, a built TC is immutable; the *Stats-sink methods are
// safe for concurrent use.
type TC struct {
	scc   graph.SCCMap // all the closure keeps of the condensation
	words int
	rows  []uint64 // NumSCC() rows of `words` words; bit w set in row s iff s reaches w (s != w)

	sizeOnce sync.Once
	size     int
}

// tcLimit bounds the SCC count a TC will be built for (~50 MB of bits).
const tcLimit = 20000

// NewTC builds the transitive closure of g. It panics when the graph is
// too large — use reach.Build("tc", ...) for an error instead.
func NewTC(g *graph.Graph) *TC {
	t, err := newTC(g)
	if err != nil {
		panic(err.Error())
	}
	return t
}

// newTC builds the transitive closure of g one SCC level at a time, the
// rows of a level computed concurrently (a row needs only the rows of
// strictly deeper levels).
func newTC(g *graph.Graph) (*TC, error) {
	buildCount.Add(1)
	cond := graph.Condense(g)
	n := cond.NumSCC()
	if n > tcLimit {
		return nil, fmt.Errorf("reach: TC limited to %d SCCs, graph has %d", tcLimit, n)
	}
	words := (n + 63) / 64
	t := &TC{scc: cond.SCCMap, words: words, rows: make([]uint64, n*words)}
	for _, bucket := range levelize(cond) {
		parallelFor(runtime.GOMAXPROCS(0), len(bucket), func(_, lo, hi int) {
			for _, s := range bucket[lo:hi] {
				row := t.row(s)
				for _, w := range cond.Out(s) {
					row[w/64] |= 1 << uint(w%64)
					wr := t.row(w)
					for k := range row {
						row[k] |= wr[k]
					}
				}
			}
		})
	}
	return t, nil
}

func (t *TC) row(s int32) []uint64 {
	return t.rows[int(s)*t.words : (int(s)+1)*t.words]
}

// numSCC returns the number of SCCs, one row each.
func (t *TC) numSCC() int { return len(t.rows) / max(t.words, 1) }

// Kind returns this backend's kind name.
func (t *TC) Kind() string { return "tc" }

// IndexSize returns the number of set closure bits (computed once,
// lazily).
func (t *TC) IndexSize() int {
	t.sizeOnce.Do(func() {
		for _, w := range t.rows {
			t.size += bits.OnesCount64(w)
		}
	})
	return t.size
}

// ReachesSt reports whether there is a non-empty path from u to v,
// charging st.
func (t *TC) ReachesSt(u, v graph.NodeID, st *Stats) bool {
	su, sv := t.scc.Comp[u], t.scc.Comp[v]
	if su == sv {
		return t.scc.Nontrivial(su)
	}
	st.Lookups++
	return t.row(su)[sv/64]&(1<<uint(sv%64)) != 0
}

// tcPred summarizes S as a bitset mask over its SCCs: v strictly
// reaches S iff v's row intersects the mask, or v sits in a nontrivial
// SCC of S.
type tcPred struct {
	t    *TC
	mask []uint64
}

func (p tcPred) Probe(v graph.NodeID, st *Stats) bool {
	s := p.t.scc.Comp[v]
	if p.mask[s/64]&(1<<uint(s%64)) != 0 && p.t.scc.Nontrivial(s) {
		return true
	}
	row := p.t.row(s)
	st.Lookups += int64(len(row))
	for k, w := range row {
		if w&p.mask[k] != 0 {
			return true
		}
	}
	return false
}

// tcSucc summarizes S as the union of its rows (everything S reaches)
// plus the membership mask for the nontrivial-SCC case.
type tcSucc struct {
	t           *TC
	mask, reach []uint64
}

func (s tcSucc) Probe(v graph.NodeID, st *Stats) bool {
	st.Lookups++
	sv := s.t.scc.Comp[v]
	bit := uint64(1) << uint(sv%64)
	if s.mask[sv/64]&bit != 0 && s.t.scc.Nontrivial(sv) {
		return true
	}
	return s.reach[sv/64]&bit != 0
}

// PredContour summarizes S for "v reaches S?" probes.
func (t *TC) PredContour(S []graph.NodeID, st *Stats) SetContour {
	p := tcPred{t: t, mask: make([]uint64, t.words)}
	for _, v := range S {
		s := t.scc.Comp[v]
		if p.mask[s/64]&(1<<uint(s%64)) == 0 {
			p.mask[s/64] |= 1 << uint(s%64)
			st.Lookups++
		}
	}
	return p
}

// tcSuccOne is the singleton successor contour: it aliases the source
// SCC's closure row instead of copying it — matchgraph and hgjoin build
// one per candidate node, so this path allocates only the small
// contour value itself (it escapes into the SetContour), never a row.
type tcSuccOne struct {
	t *TC
	s int32
}

func (c tcSuccOne) Probe(v graph.NodeID, st *Stats) bool {
	st.Lookups++
	sv := c.t.scc.Comp[v]
	if sv == c.s {
		return c.t.scc.Nontrivial(sv)
	}
	return c.t.row(c.s)[sv/64]&(1<<uint(sv%64)) != 0
}

// SuccContour summarizes S for "S reaches v?" probes.
func (t *TC) SuccContour(S []graph.NodeID, st *Stats) SetContour {
	if len(S) == 1 {
		st.Lookups++
		return tcSuccOne{t: t, s: t.scc.Comp[S[0]]}
	}
	c := tcSucc{t: t, mask: make([]uint64, t.words), reach: make([]uint64, t.words)}
	for _, v := range S {
		s := t.scc.Comp[v]
		if c.mask[s/64]&(1<<uint(s%64)) != 0 {
			continue // SCC already folded in
		}
		c.mask[s/64] |= 1 << uint(s%64)
		row := t.row(s)
		st.Lookups += int64(len(row))
		for k, w := range row {
			c.reach[k] |= w
		}
	}
	return c
}

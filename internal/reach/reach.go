// Package reach implements the reachability indexes GTEA evaluates
// over: the 3-hop index (Jin et al., SIGMOD'09) with the contour
// merging of GTEA (Procedure 2 / Proposition 7), and a bitset transitive
// closure usable both as the testing oracle and as a production backend
// for mid-sized graphs.
//
// All indexes answer *strict* reachability — "is there a non-empty path
// from u to v" — which is the ancestor-descendant relationship of the
// paper's data model. Cyclic graphs are handled through SCC
// condensation: a node strictly reaches itself exactly when its SCC is
// nontrivial.
//
// ContourIndex is the contract the GTEA engine evaluates over: point
// reachability plus merged set summaries (contours) for holistic "node
// vs. node-set" pruning probes. Every query method takes an explicit
// *Stats sink, so a built index is immutable and safe for concurrent
// readers. A contour is one SetContour whatever its direction: the
// direction is fixed when it is built (PredContour or SuccContour), and
// its one Probe asks whether v is strictly connected to the set that
// way. The 3-hop index also exposes its chain positions, chain contours
// and shared list walkers (MergeLists, NewWalker, CheckOwn, ...) for
// the paper's Procedure 6/7 optimizations, each written once for both
// directions (a down flag: successor lists down, predecessor lists up);
// the engine uses them when its backend is a *ThreeHop.
//
// This package is the one place that names the backends: Build
// constructs one by kind, Kinds lists the kinds, and AppendIndex /
// DecodeIndex save and revive each.
package reach

import "gtpq/internal/graph"

// ContourIndex is the reachability abstraction the GTEA engine
// evaluates over. Implementations are immutable once built: every query
// method charges its work to the caller-supplied *Stats sink (which
// must be non-nil), so one index can serve any number of concurrent
// evaluations.
type ContourIndex interface {
	// Kind returns the backend's kind name ("threehop", ...).
	Kind() string
	// IndexSize returns the number of index elements — the paper's
	// |Lin| + |Lout| measure (bits for the transitive closure).
	IndexSize() int
	// ReachesSt reports whether there is a non-empty path from u to v,
	// charging lookups to st.
	ReachesSt(u, v graph.NodeID, st *Stats) bool
	// PredContour summarizes S for "does v strictly reach some element
	// of S?" probes (the merged complete predecessor list of S).
	PredContour(S []graph.NodeID, st *Stats) SetContour
	// SuccContour summarizes S for "does some element of S strictly
	// reach v?" probes (the merged complete successor list of S).
	SuccContour(S []graph.NodeID, st *Stats) SetContour
}

// SetContour is the backend-opaque summary of a node set S, merged in
// one direction when it was built (Procedure 2, Proposition 7).
type SetContour interface {
	// Probe reports whether v is strictly connected to S in the
	// contour's direction: whether v reaches some element of S for a
	// predecessor contour, whether some element of S reaches v for a
	// successor contour.
	Probe(v graph.NodeID, st *Stats) bool
}

// Stats counts index work for the I/O-cost experiments (Fig 10): every
// element retrieved from a successor/predecessor list (or a closure
// row) increments Lookups.
type Stats struct {
	// Lookups is the number of index elements examined.
	Lookups int64
}

// Reset zeroes the counters.
func (s *Stats) Reset() { *s = Stats{} }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Lookups += other.Lookups
}

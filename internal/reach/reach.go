// Package reach implements the reachability indexes the paper's engines
// rely on: the 3-hop index (Jin et al., SIGMOD'09) with the contour
// merging of GTEA (Procedure 2 / Proposition 7), a bitset transitive
// closure usable both as the testing oracle and as a production backend
// for mid-sized graphs, and SSPI (Chen et al., VLDB'05) used by
// TwigStackD.
//
// All indexes answer *strict* reachability — "is there a non-empty path
// from u to v" — which is the ancestor-descendant relationship of the
// paper's data model. Cyclic graphs are handled through SCC
// condensation: a node strictly reaches itself exactly when its SCC is
// nontrivial.
//
// Two interface tiers serve the GTEA engine:
//
//   - ContourIndex is the minimal contract: point reachability plus
//     merged set summaries (contours) for holistic "node vs. node-set"
//     pruning probes. Every query method takes an explicit *Stats sink,
//     so a built index is immutable and safe for concurrent readers.
//   - ChainIndex extends it with the chain positions and shared
//     list walkers the paper's Procedure 6/7 optimizations need; only
//     chain-structured indexes (3-hop) provide it, and the engine falls
//     back to plain contour probes when it is absent.
//
// Backends register themselves under a kind name; Build constructs one
// by name (see Register/Build/Kinds).
package reach

import "gtpq/internal/graph"

// Index answers strict reachability queries on a fixed graph. It is the
// legacy single-threaded contract (lookups are counted into the index's
// own Stats); concurrent callers use ContourIndex's explicit-sink
// methods instead.
type Index interface {
	// Reaches reports whether there is a non-empty path from u to v.
	Reaches(u, v graph.NodeID) bool
	// Stats returns the index's lookup counters (never nil).
	Stats() *Stats
}

// ContourIndex is the reachability abstraction the GTEA engine
// evaluates over. Implementations are immutable once built: every query
// method charges its work to the caller-supplied *Stats sink (which
// must be non-nil), so one index can serve any number of concurrent
// evaluations.
type ContourIndex interface {
	Index

	// Kind returns the registry name of the backend ("threehop", ...).
	Kind() string
	// IndexSize returns the number of index elements — the paper's
	// |Lin| + |Lout| measure (bits for the transitive closure).
	IndexSize() int
	// ReachesSt reports whether there is a non-empty path from u to v,
	// charging lookups to st.
	ReachesSt(u, v graph.NodeID, st *Stats) bool
	// PredContour summarizes S for "does v strictly reach some element
	// of S?" probes (the merged complete predecessor list of S).
	PredContour(S []graph.NodeID, st *Stats) PredContour
	// SuccContour summarizes S for "does some element of S strictly
	// reach v?" probes (the merged complete successor list of S).
	SuccContour(S []graph.NodeID, st *Stats) SuccContour
	// LabelCount returns the number of graph nodes carrying the primary
	// label — the exact count card.Candidates prices label-only query
	// nodes with (planner estimates, cost-based admission). Zero for labels
	// absent from the graph; no lookup is charged (it reads a
	// precomputed histogram, not the index).
	LabelCount(label string) int
}

// PredContour is the backend-opaque predecessor summary of a node set S.
type PredContour interface {
	// ReachedFrom reports whether v strictly reaches some element of S.
	ReachedFrom(v graph.NodeID, st *Stats) bool
	// Size returns the number of summary elements (the paper's
	// contour-size measure).
	Size() int
}

// SuccContour is the backend-opaque successor summary of a node set S.
type SuccContour interface {
	// ReachesNode reports whether some element of S strictly reaches v.
	ReachesNode(v graph.NodeID, st *Stats) bool
	// Size returns the number of summary elements.
	Size() int
}

// ChainWalker streams index list entries for candidates processed in
// chain order (see ThreeHop's OutWalker/InWalker).
type ChainWalker interface {
	// Walk invokes f for every not-yet-visited list entry relevant to v.
	Walk(v graph.NodeID, f func(cid, sid int32))
}

// ChainIndex extends ContourIndex with the chain-cover structure the
// paper's Procedure 6/7 rely on: total reachability order within a
// chain (by sequence id), shared suffix/prefix walkers, and the
// own-position shortcuts. The GTEA engine uses these to share list
// scans between candidates on the same chain and to inherit positive
// valuations along chains; backends without chain structure simply
// don't implement it.
type ChainIndex interface {
	ContourIndex

	// Position returns v's chain id and sequence id.
	Position(v graph.NodeID) (cid, sid int32)
	// MergePredLists computes the predecessor contour of S (Procedure 2).
	MergePredLists(S []graph.NodeID, st *Stats) *Contour
	// MergeSuccLists computes the successor contour of S (its dual).
	MergeSuccLists(S []graph.NodeID, st *Stats) *Contour
	// NewOutWalker returns a walker over successor lists (Procedure 6).
	NewOutWalker(st *Stats) ChainWalker
	// NewInWalker returns a walker over predecessor lists (Procedure 7).
	NewInWalker(st *Stats) ChainWalker
	// CheckOwn tests v's own chain position against a predecessor
	// contour: reached, ambiguous (witness is v's own position and
	// v ∈ S), or neither.
	CheckOwn(v graph.NodeID, cp *Contour) (hit, ambiguous bool)
	// ResolveAmbiguous settles the rare own-position ambiguity.
	ResolveAmbiguous(v graph.NodeID, cp *Contour, st *Stats) bool
	// CheckOwnSucc and ResolveAmbiguousSucc are the successor-contour
	// duals used by upward pruning.
	CheckOwnSucc(cs *Contour, v graph.NodeID) (hit, ambiguous bool)
	ResolveAmbiguousSucc(cs *Contour, v graph.NodeID, st *Stats) bool
}

// Stats counts index work for the I/O-cost experiments (Fig 10): every
// element retrieved from a successor/predecessor list (or an SSPI
// surplus list, or a closure row) increments Lookups.
type Stats struct {
	// Lookups is the number of index elements examined.
	Lookups int64
	// Queries is the number of reachability questions asked.
	Queries int64
}

// Reset zeroes the counters.
func (s *Stats) Reset() { *s = Stats{} }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Lookups += other.Lookups
	s.Queries += other.Queries
}

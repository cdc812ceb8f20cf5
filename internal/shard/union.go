package shard

import (
	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// Live updates over a sharded base (see internal/delta) need two things
// the scatter-gather engine doesn't directly expose: the logical graph
// in the global id space, and a reachability index over it. Both are
// recoverable from the shards without touching raw sources, because
// every vertex lives in exactly one shard together with its whole
// weakly-connected component:
//
//   - the union of the shard subgraphs is exactly the logical graph —
//     an edge never leaves its component, so each vertex's shard holds
//     its complete out-adjacency;
//   - a vertex's shard is authoritative for its reachability: every
//     vertex it reaches or is reached from lies in its component, with
//     the induced subgraph preserving every path. A composite index
//     can therefore answer global probes by routing them to one
//     per-shard index, with no cross-shard reasoning.
//
// The delta overlay then wraps CompositeIndex the way it wraps a flat
// backend, and a dataset with pending deltas is served by a single
// GTEA engine over Union() — scatter-gather resumes after compaction
// re-shards the extended graph. At one shard both are the shard's own
// graph and index, so a flat dataset pays for neither.

// shardLoc is the residence of a global vertex: the shard and its
// local id there.
type shardLoc struct {
	shard int32
	local graph.NodeID
}

// CompositeKindPrefix prefixes the composite's reported index kind;
// the full kind is CompositeKindPrefix + per-shard kind.
const CompositeKindPrefix = "sharded+"

// homes maps every global id to its residence.
func (se *ShardedEngine) homes() []shardLoc {
	home := make([]shardLoc, se.totalNodes)
	for si, u := range se.shards {
		for lv, gv := range u.globals {
			home[gv] = shardLoc{shard: int32(si), local: graph.NodeID(lv)}
		}
	}
	return home
}

// Union reconstructs the logical graph from the shard subgraphs:
// global ids, labels, attributes, and tree/cross edge kinds (parallel
// edges included) are all preserved. The result is frozen. A one-shard
// engine's shard graph is the logical graph, and Union returns it.
func (se *ShardedEngine) Union() *graph.Graph {
	if eng := se.Flat(); eng != nil {
		return eng.G
	}
	g := graph.New(se.totalNodes, se.totalEdges)
	home := se.homes()
	for _, loc := range home {
		sg := se.shards[loc.shard].eng.G
		g.AddNode(sg.Label(loc.local), sg.AttrMap(loc.local))
	}
	for v, loc := range home {
		u := se.shards[loc.shard]
		sg := u.eng.G
		for _, lw := range sg.Out(loc.local) {
			gw := u.globals[lw]
			if sg.EdgeKindOf(loc.local, lw) == graph.CrossEdge {
				g.AddCrossEdge(graph.NodeID(v), gw)
			} else {
				g.AddEdge(graph.NodeID(v), gw)
			}
		}
	}
	g.Freeze()
	return g
}

// CompositeIndex returns a reach.ContourIndex over the logical (global
// id) graph that routes every probe to a per-shard index. It shares
// the shard engines' indexes — no construction happens — and is
// immutable and safe for concurrent use like every backend. A one-shard
// engine has nothing to route, and returns its shard's index.
func (se *ShardedEngine) CompositeIndex() reach.ContourIndex {
	if eng := se.Flat(); eng != nil {
		return eng.H
	}
	return &compositeIndex{se: se, kind: CompositeKindPrefix + se.kind, home: se.homes()}
}

// compositeIndex routes reachability probes to per-shard indexes. A
// vertex's shard holds its whole component, and local paths are global
// paths, so a local answer about the vertex is the global answer.
type compositeIndex struct {
	se   *ShardedEngine
	kind string
	home []shardLoc // global id -> residence
}

func (ci *compositeIndex) Kind() string { return ci.kind }

func (ci *compositeIndex) IndexSize() int { return ci.se.IndexSize() }

// ReachesSt answers through u's shard: if v lives in another shard it
// is in another component, outside u's cone.
func (ci *compositeIndex) ReachesSt(u, v graph.NodeID, st *reach.Stats) bool {
	hu, hv := ci.home[u], ci.home[v]
	if hu.shard != hv.shard {
		return false
	}
	return ci.se.shards[hu.shard].eng.H.ReachesSt(hu.local, hv.local, st)
}

// PredContour builds one per-shard predecessor contour over S's local
// members; a probe for v consults the contour of v's shard — elements
// of S outside it are outside v's component.
func (ci *compositeIndex) PredContour(S []graph.NodeID, st *reach.Stats) reach.SetContour {
	return ci.contour(S, false, st)
}

// SuccContour builds one per-shard successor contour, for the same
// reason.
func (ci *compositeIndex) SuccContour(S []graph.NodeID, st *reach.Stats) reach.SetContour {
	return ci.contour(S, true, st)
}

// contour maps S onto each shard's local id space and merges each
// shard's share there: its successor contour when down, else its
// predecessor contour.
func (ci *compositeIndex) contour(S []graph.NodeID, down bool, st *reach.Stats) *compositeContour {
	locals := make([][]graph.NodeID, len(ci.se.shards))
	for _, s := range S {
		loc := ci.home[s]
		locals[loc.shard] = append(locals[loc.shard], loc.local)
	}
	c := &compositeContour{ci: ci, per: make([]reach.SetContour, len(ci.se.shards))}
	for si, ls := range locals {
		switch h := ci.se.shards[si].eng.H; {
		case len(ls) == 0:
		case down:
			c.per[si] = h.SuccContour(ls, st)
		default:
			c.per[si] = h.PredContour(ls, st)
		}
	}
	return c
}

// compositeContour holds one contour per shard with members of S.
type compositeContour struct {
	ci  *compositeIndex
	per []reach.SetContour // nil for shards without members of S
}

func (c *compositeContour) Probe(v graph.NodeID, st *reach.Stats) bool {
	loc := c.ci.home[v]
	inner := c.per[loc.shard]
	return inner != nil && inner.Probe(loc.local, st)
}

package shard

import (
	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// Live updates over a sharded base (see internal/delta) need two things
// the scatter-gather engine doesn't directly expose: the logical graph
// in the global id space, and a reachability index over it. Both are
// recoverable from the shards without touching raw sources:
//
//   - the union of the shard subgraphs is exactly the logical graph —
//     every vertex is owned by some shard, and the closure invariant
//     puts every edge u→v (with v in u's cone) inside every shard that
//     holds u;
//   - the same invariant makes any shard holding u authoritative for
//     u's outward reachability: everything u reaches is present in
//     that shard, with the induced subgraph preserving every path. A
//     composite index can therefore answer global probes by routing
//     them to one per-shard index, with no cross-shard reasoning.
//
// The delta overlay then wraps CompositeIndex the way it wraps a flat
// backend, and a dataset with pending deltas is served by a single
// GTEA engine over Union() — scatter-gather resumes after compaction
// re-shards the extended graph.

// shardLoc is one residence of a global vertex: the shard and its
// local id there.
type shardLoc struct {
	shard int32
	local graph.NodeID
}

// CompositeKindPrefix prefixes the composite's reported index kind;
// the full kind is CompositeKindPrefix + per-shard kind.
const CompositeKindPrefix = "sharded+"

// Union reconstructs the logical graph from the shard subgraphs:
// global ids, labels, attributes, and tree/cross edge kinds are all
// preserved; edges replicated into several shards dedupe. The result
// is frozen.
func (se *ShardedEngine) Union() *graph.Graph {
	g := graph.New(se.totalNodes, se.totalEdges)
	// Each vertex's home is its first residence; the closure invariant
	// puts the vertex's complete out-adjacency — parallel edges
	// included — inside every shard holding it, so copying adjacency
	// from homes alone reproduces every logical edge exactly once per
	// multiplicity.
	home := make([]shardLoc, se.totalNodes)
	present := make([]bool, se.totalNodes)
	for si, u := range se.shards {
		for lv, gv := range u.globals {
			if present[gv] {
				continue
			}
			present[gv] = true
			home[gv] = shardLoc{shard: int32(si), local: graph.NodeID(lv)}
		}
	}
	for v := 0; v < se.totalNodes; v++ {
		loc := home[v]
		sg := se.shards[loc.shard].eng.G
		g.AddNode(sg.Label(loc.local), sg.AttrMap(loc.local))
	}
	for v := 0; v < se.totalNodes; v++ {
		loc := home[v]
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
// immutable and safe for concurrent use like every backend.
func (se *ShardedEngine) CompositeIndex() reach.ContourIndex {
	ci := &compositeIndex{
		se:   se,
		kind: CompositeKindPrefix + se.kind,
		memb: make([][]shardLoc, se.totalNodes),
	}
	for si, u := range se.shards {
		for lv, gv := range u.globals {
			ci.memb[gv] = append(ci.memb[gv], shardLoc{shard: int32(si), local: graph.NodeID(lv)})
		}
	}
	return ci
}

// compositeIndex routes reachability probes to per-shard indexes. The
// closure invariant guarantees correctness: for any shard holding u,
// u's full reachable cone is inside that shard and local paths are
// global paths, so a local answer about u's outward reachability is
// the global answer.
type compositeIndex struct {
	se   *ShardedEngine
	kind string
	memb [][]shardLoc // global id -> residences

	stats reach.Stats
}

func (ci *compositeIndex) Kind() string { return ci.kind }

func (ci *compositeIndex) IndexSize() int { return ci.se.IndexSize() }

func (ci *compositeIndex) LabelCount(label string) int { return ci.se.LabelCount(label) }

func (ci *compositeIndex) Stats() *reach.Stats { return &ci.stats }

func (ci *compositeIndex) Reaches(u, v graph.NodeID) bool {
	return ci.ReachesSt(u, v, &ci.stats)
}

// localIn returns v's local id in shard si, if v resides there.
func (ci *compositeIndex) localIn(v graph.NodeID, si int32) (graph.NodeID, bool) {
	for _, loc := range ci.memb[v] {
		if loc.shard == si {
			return loc.local, true
		}
	}
	return 0, false
}

// ReachesSt answers through any shard holding u: if v is absent from
// that shard it is outside u's cone.
func (ci *compositeIndex) ReachesSt(u, v graph.NodeID, st *reach.Stats) bool {
	if len(ci.memb[u]) == 0 {
		st.Queries++
		return false
	}
	home := ci.memb[u][0]
	lv, ok := ci.localIn(v, home.shard)
	if !ok {
		st.Queries++
		return false
	}
	return ci.se.shards[home.shard].eng.H.ReachesSt(home.local, lv, st)
}

// PredContour builds one per-shard predecessor contour over S's local
// members; a probe for v consults the contour of (any) shard holding v
// — elements of S outside that shard are outside v's cone.
func (ci *compositeIndex) PredContour(S []graph.NodeID, st *reach.Stats) reach.PredContour {
	pc := &compositePred{ci: ci, per: make([]reach.PredContour, len(ci.se.shards))}
	locals := ci.groupByShard(S)
	for si, ls := range locals {
		if len(ls) > 0 {
			pc.per[si] = ci.se.shards[si].eng.H.PredContour(ls, st)
		}
	}
	return pc
}

// SuccContour builds one per-shard successor contour; a probe for v
// asks every shard holding v whether a local member of S reaches it
// (an S element reaching v shares at least one shard with v).
func (ci *compositeIndex) SuccContour(S []graph.NodeID, st *reach.Stats) reach.SuccContour {
	sc := &compositeSucc{ci: ci, per: make([]reach.SuccContour, len(ci.se.shards))}
	locals := ci.groupByShard(S)
	for si, ls := range locals {
		if len(ls) > 0 {
			sc.per[si] = ci.se.shards[si].eng.H.SuccContour(ls, st)
		}
	}
	return sc
}

// groupByShard maps S onto each shard's local id space.
func (ci *compositeIndex) groupByShard(S []graph.NodeID) [][]graph.NodeID {
	locals := make([][]graph.NodeID, len(ci.se.shards))
	for _, s := range S {
		for _, loc := range ci.memb[s] {
			locals[loc.shard] = append(locals[loc.shard], loc.local)
		}
	}
	return locals
}

type compositePred struct {
	ci  *compositeIndex
	per []reach.PredContour
}

func (pc *compositePred) ReachedFrom(v graph.NodeID, st *reach.Stats) bool {
	if len(pc.ci.memb[v]) == 0 {
		return false
	}
	home := pc.ci.memb[v][0]
	inner := pc.per[home.shard]
	return inner != nil && inner.ReachedFrom(home.local, st)
}

func (pc *compositePred) Size() int {
	total := 0
	for _, inner := range pc.per {
		if inner != nil {
			total += inner.Size()
		}
	}
	return total
}

type compositeSucc struct {
	ci  *compositeIndex
	per []reach.SuccContour
}

func (sc *compositeSucc) ReachesNode(v graph.NodeID, st *reach.Stats) bool {
	for _, loc := range sc.ci.memb[v] {
		inner := sc.per[loc.shard]
		if inner != nil && inner.ReachesNode(loc.local, st) {
			return true
		}
	}
	return false
}

func (sc *compositeSucc) Size() int {
	total := 0
	for _, inner := range sc.per {
		if inner != nil {
			total += inner.Size()
		}
	}
	return total
}

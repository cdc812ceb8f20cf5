// Package shard partitions one logical dataset into K per-shard
// subgraphs, each with its own reachability index and snapshot, and
// evaluates queries over all of them with scatter-gather: every shard
// runs the paper's GTEA algorithm on its subgraph, and the per-shard
// result streams are remapped into the global id space and merged by
// one k-way ordered, deduplicating cursor (a materialized answer is
// that stream collected).
//
// Soundness rests on a closure invariant: every shard's vertex set is
// closed under reachability (if v is in the shard, so is everything v
// reaches) and the shard graph is the induced subgraph on that set.
// Every image of a match is reachable from the root's image, and every
// predicate — attribute, structural, negated — only inspects the
// reachable cone of a candidate, so for any vertex present in a shard
// the matches rooted at it are exactly the matches rooted at it in the
// full graph. Each vertex is owned by some shard, hence every match is
// found at least once, and the deduplicating union merge collapses the
// copies found through replicated vertices.
//
// Two partitioning modes maintain the invariant:
//
//   - wcc: whole weakly-connected components are bin-packed onto
//     shards (greedy, largest first). No vertex is replicated and no
//     edge is cut; per-shard answers are disjoint.
//   - hash: vertices are hashed onto owner shards and each shard's
//     vertex set is the reachability closure of its owned vertices —
//     the cut vertices' closures are replicated. This is the fallback
//     when the graph has fewer components than shards (e.g. one giant
//     WCC); replication makes it sound, at the cost of shared work.
package shard

// Package shard partitions one logical dataset into K per-shard
// subgraphs, each with its own reachability index and snapshot, and
// evaluates queries over all of them with scatter-gather: every shard
// runs the paper's GTEA algorithm on its subgraph, and the per-shard
// result streams are remapped into the global id space and merged by
// one k-way ordered cursor (a materialized answer is that stream
// collected).
//
// Soundness rests on components. Partition bin-packs whole
// weakly-connected components onto shards (greedy, largest first), so
// every vertex lives in exactly one shard, no edge is cut, and each
// shard graph is the induced subgraph on its components. Every image
// of a match is reachable from the root's image, and every predicate —
// attribute, structural, negated — only inspects the reachable cone of
// a candidate, so a match never leaves the root image's component. A
// shard therefore finds exactly the matches rooted in its components,
// the per-shard answers are disjoint, and their merge is the full
// answer. A graph with fewer components than shards leaves some shards
// empty; they evaluate to empty answers.
package shard

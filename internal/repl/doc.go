// Package repl replicates datasets between gtpq-serve processes by
// tailing delta logs. The design splits frozen state from live
// mutation the way the catalog already does on disk: the base (a
// `.snap` snapshot, a JSON graph or a SHA-256-manifested shard
// directory) is the immutable object a replica ships once, as stored,
// and the base-fingerprinted delta log is the journal it follows
// afterwards. Because the log
// encoding is deterministic, a replica that re-applies the decoded
// batches through its own catalog grows a byte-identical local log —
// so the local log size IS the durable replication offset, restart
// resume is the ordinary cold-replay path, and a replica can itself be
// tailed (chained replication) with no extra machinery.
//
// The wire protocol is two GET endpoints on the primary (served by
// internal/server):
//
//	GET /repl/log?dataset=X&from=N&max=M&wait_ms=W
//	    raw log bytes from offset N, with the log state in response
//	    headers and a CRC32 of the body so transport damage is
//	    detected before any frame is parsed. When nothing past N
//	    exists, the answer waits for the next commit that appends or
//	    otherwise changes the log state (a compaction fold changes
//	    the base), up to W ms; wait_ms absent or 0 answers at once.
//	GET /repl/base?dataset=X[&file=F]
//	    the frozen base as the primary's catalog stores it: the root
//	    file (X.snap, X.json[.gz] or a shard directory's
//	    manifest.json), named in X-GTPQ-Repl-File; for a manifest,
//	    then each file it lists via file=F, SHA-256-verified. The
//	    replica installs the same files through its own catalog.
//
// Faults are detected in layers: transport damage (drop, truncation,
// duplication) by the chunk CRC; in-band frame corruption by the
// delta log's own frame CRCs (delta.ErrFrameCorrupt); a wrong or
// changed base — including a primary-side compaction fold — by the
// base fingerprint, which triggers a re-sync from the new base; a
// local copy that fails to load is re-synced the same way. Every
// failure class either heals by refetching from the durable offset or
// surfaces as a typed error plus a gtpq_repl_* counter; none can
// silently double-apply or skip a batch.
package repl

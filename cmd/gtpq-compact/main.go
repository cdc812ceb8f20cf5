// Command gtpq-compact folds pending delta logs into fresh bases, the
// offline counterpart of gtpq-serve's -compact-after: for each named
// dataset (or every dataset with -all), the extended graph gets a
// from-scratch reachability index, flat datasets a new `<name>.snap`,
// sharded datasets an atomically-replaced re-partitioned directory,
// and the delta log is deleted. Run it during maintenance windows to
// keep the unsnapshotted window — and the overlay's per-query frontier
// cost — small.
//
// WARNING: never run gtpq-compact against a directory a live
// gtpq-serve is writing to. The server holds its own open log handles
// and serializes appends in-process only; an external fold deletes
// the log file underneath it and updates the server acknowledges
// afterwards land in an unlinked inode — durably fsynced, silently
// gone on the next restart. For online folding use the server's
// -compact-after flag, which shares the in-process serialization.
//
// Usage:
//
//	gtpq-compact -data ./datasets citations dblp
//	gtpq-compact -data ./datasets -all
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"gtpq/internal/catalog"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gtpq-compact: ")
	var (
		dataDir = flag.String("data", "", "dataset directory (required)")
		all     = flag.Bool("all", false, "compact every dataset in the directory")
	)
	flag.Parse()
	if *dataDir == "" || (!*all && flag.NArg() == 0) {
		flag.Usage()
		os.Exit(2)
	}

	cat, err := catalog.Open(*dataDir, catalog.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer cat.Close()

	names := flag.Args()
	if *all {
		names, err = cat.Names()
		if err != nil {
			log.Fatal(err)
		}
	}

	folded := 0
	for _, name := range names {
		ds, err := cat.Acquire(name)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		pending := ds.PendingDeltas
		ds.Release()
		if pending == 0 {
			log.Printf("%s: no pending deltas", name)
			continue
		}
		start := time.Now()
		dsc, err := cat.Compact(name)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		kind := dsc.Engine.IndexKind()
		log.Printf("%s: folded %d pending mutations into a fresh %s base (%d nodes, %d edges) in %s",
			name, pending, kind, dsc.Nodes(), dsc.Edges(), time.Since(start).Round(time.Millisecond))
		dsc.Release()
		folded++
	}
	log.Printf("compacted %d of %d dataset(s)", folded, len(names))
}

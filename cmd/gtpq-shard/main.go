// Command gtpq-shard partitions one logical dataset into a sharded
// dataset directory that gtpq-serve's catalog recognizes and serves
// with scatter-gather (see internal/shard for the partitioning rule
// and the manifest format).
//
// Usage:
//
//	gtpq-shard -in data.json -out datasets/data -k 4
//	gtpq-shard -in data.snap -out datasets/data -k 8
//	gtpq-shard -in data.json.gz -out datasets/data -k 4 -index tc
//	gtpq-shard -verify datasets/data
//
// The output directory name is the dataset name the catalog serves it
// under (override with -name). Whole weakly-connected components are
// bin-packed onto the K shards, largest first; a graph with fewer than
// K components leaves the remaining shards empty.
// -verify re-opens an existing shard directory, checks every manifest
// content hash, and reports the shard layout without writing anything.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gtpq/internal/graph"
	"gtpq/internal/graphio"
	"gtpq/internal/reach"
	"gtpq/internal/shard"
	"gtpq/internal/snapshot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gtpq-shard: ")
	var (
		in     = flag.String("in", "", "input graph: JSON, gzipped JSON, or a .snap snapshot")
		out    = flag.String("out", "", "output shard directory (created if missing)")
		k      = flag.Int("k", 4, "number of shards")
		index  = flag.String("index", "", "reachability backend per shard: "+strings.Join(reach.Kinds(), ", ")+" (default threehop)")
		name   = flag.String("name", "", "dataset name recorded in the manifest (default: base name of -out)")
		verify = flag.String("verify", "", "verify an existing shard directory and exit")
	)
	flag.Parse()

	if *verify != "" {
		se, man, err := shard.LoadDir(*verify, shard.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: ok — dataset %q, %d shard(s), %d nodes, %d edges, %s index\n",
			*verify, man.Name, se.NumShards(), man.TotalNodes, man.TotalEdges, man.Index)
		printShards(man)
		return
	}

	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	dsName := *name
	if dsName == "" {
		dsName = filepath.Base(filepath.Clean(*out))
	}

	g, err := loadGraph(*in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s: %d nodes, %d edges\n", *in, g.N(), g.M())

	start := time.Now()
	plan, err := shard.Partition(g, *k, shard.ModeWCC)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned: %d weakly-connected component(s) -> %d shard(s) (%s)\n",
		plan.Components, *k, time.Since(start).Round(time.Millisecond))

	start = time.Now()
	man, err := shard.WriteDir(*out, dsName, g, plan, shard.Options{Index: *index})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: dataset %q, %s index, built in %s\n",
		*out, man.Name, man.Index, time.Since(start).Round(time.Millisecond))
	printShards(man)

	// Re-load through the verification path so a partitioning run never
	// reports success for a directory the catalog would refuse.
	if _, _, err := shard.LoadDir(*out, shard.Options{}); err != nil {
		log.Fatalf("self-verification failed: %v", err)
	}
	fmt.Println("self-verification ok")
}

// loadGraph reads a snapshot or (possibly gzipped) graph JSON.
func loadGraph(path string) (*graph.Graph, error) {
	g, _, err := snapshot.LoadFile(path)
	if err == nil {
		return g, nil
	}
	if !errors.Is(err, snapshot.ErrNotSnapshot) {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err = graphio.Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func printShards(man *shard.Manifest) {
	for i, sf := range man.Shards {
		fmt.Printf("  shard %d: %s  %d nodes, %d edges  sha256 %s…\n",
			i, sf.Snap, sf.Nodes, sf.Edges, sf.SnapSHA256[:12])
	}
}

// Command gtpq-serve runs the GTPQ query server over a directory of
// datasets (see internal/catalog for the on-disk layout and
// internal/server for the HTTP API).
//
// Usage:
//
//	gtpq-serve -data ./datasets                       # serve on :8080
//	gtpq-serve -data ./datasets -addr :9000 -workers 16 -queue 128
//	gtpq-serve -data ./datasets -snapshots -preload citations
//	gtpq-serve -data ./datasets -index tc -parallel
//	gtpq-serve -data ./datasets -cache-bytes 268435456  # 256 MiB result cache
//	gtpq-serve -data ./datasets -compact-after 1000     # auto-fold delta logs
//
// Datasets are `<name>.json` / `<name>.json.gz` graph files (the
// graphio format), `<name>.snap` index snapshots (loaded without
// rebuilding the reachability index), or `<name>/` sharded dataset
// directories written by gtpq-shard (hash-verified at load and served
// with scatter-gather; see internal/shard). With -snapshots, the
// server writes a snapshot the first time it builds an index from raw
// JSON, so subsequent cold starts are fast. Repeated queries answer
// from a byte-bounded result cache (-cache-bytes, default 64 MiB, 0
// disables; see internal/qcache) invalidated by hot-reload
// generations.
//
// API sketch (see the README for full curl examples):
//
//	POST /query     {"dataset":"d","query":"node x label=a output","timeout_ms":100}
//	POST /query     {"dataset":"d","queries":["...","..."]}
//	POST /query     {"dataset":"d","query":"...","limit":100,"cursor":"..."}  paged
//	POST /query     with Accept: application/x-ndjson — streamed rows
//	POST /subscribe {"dataset":"d","query":"..."} — SSE stream of result changes
//	POST /update    {"dataset":"d","nodes":[{"label":"a"}],"edges":[{"from":0,"to":9}]}
//	GET  /datasets
//	GET  /metrics          Prometheus text exposition (every serving counter)
//	GET  /debug/slowlog    slow-query ring (see -slowlog-ms)
//	GET  /healthz
//
// Datasets are live-mutable: POST /update appends vertices and edges,
// durably (fsynced delta log replayed on restart) and served
// immediately through a reachability overlay while the expensive base
// index stays frozen; -compact-after bounds the overlay by folding the
// log into a fresh snapshot (or re-sharded directory) once enough
// mutations accumulate. See internal/delta.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/obs"
	"gtpq/internal/reach"
	"gtpq/internal/repl"
	"gtpq/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gtpq-serve: ")
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		dataDir   = flag.String("data", "", "dataset directory (required)")
		index     = flag.String("index", "", "reachability backend for fresh builds: "+strings.Join(reach.Kinds(), ", ")+" (default threehop; snapshots carry their own)")
		parallel  = flag.Bool("parallel", false, "build indexes with multiple goroutines")
		snapshots = flag.Bool("snapshots", false, "write <name>.snap after building an index from raw JSON")
		preload   = flag.String("preload", "", "comma-separated datasets to load before listening ('all' for every dataset)")
		workers   = flag.Int("workers", 0, "max concurrent evaluations (default GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "max evaluations waiting for a worker (default 4x workers)")
		timeout   = flag.Duration("timeout", 2*time.Second, "default per-request deadline")
		maxTime   = flag.Duration("max-timeout", 30*time.Second, "upper bound on client-requested deadlines")
		maxRows   = flag.Int("max-rows", 10000, "max result rows returned per query; doubles as the default page size for paged and NDJSON responses (0: unlimited)")
		cacheB    = flag.Int64("cache-bytes", 64<<20, "result cache budget in bytes (0: disable caching)")
		compactN  = flag.Int("compact-after", 0, "fold a dataset's delta log into a fresh snapshot once this many mutations are pending (0: never auto-compact)")
		plan      = flag.String("plan", "on", "cost-based pruning order + multiway kernels: on or off (off restores the paper's fixed post-order)")
		costQuota = flag.Int64("cost-quota", 0, "reject queries whose estimated candidate cost exceeds this before admission (0: no limit)")
		maxSubs   = flag.Int("max-subs", 1024, "max concurrently attached standing-query streams (POST /subscribe)")
		slowMS    = flag.Int64("slowlog-ms", 250, "record queries at least this slow (with per-stage trace timings) in GET /debug/slowlog (0: disable)")
		slowSize  = flag.Int("slowlog-size", 128, "slow-query ring capacity")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty: disabled)")
		logFormat = flag.String("log-format", "text", "request logging: text (startup logs only) or json (one structured line per request on stderr)")

		follow   = flag.String("follow", "", "primary base URL to replicate from; makes this server a read-only replica (see internal/repl)")
		followDS = flag.String("follow-datasets", "", "comma-separated datasets to follow (default: everything the primary serves)")
		maxLag   = flag.Int("max-lag", 64, "with -follow, batches behind the primary before /readyz reports not-ready")
		replSeed = flag.Int64("repl-seed", 0, "with -follow, jitter seed (0: fixed default; give each replica its own to decorrelate retries)")
	)
	flag.Parse()
	if *dataDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	var noPlan bool
	switch *plan {
	case "on", "true", "1":
	case "off", "false", "0":
		noPlan = true
	default:
		log.Fatalf("invalid -plan value %q (want on or off)", *plan)
	}

	cat, err := catalog.Open(*dataDir, catalog.Options{
		Index:        *index,
		Parallel:     *parallel,
		AutoSnapshot: *snapshots,
		NoPlan:       noPlan,
	})
	if err != nil {
		log.Fatal(err)
	}
	names, err := cat.Names()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("catalog %s: %d dataset(s): %s", *dataDir, len(names), strings.Join(names, ", "))

	if *preload != "" {
		targets := strings.Split(*preload, ",")
		if *preload == "all" {
			targets = names
		}
		for _, name := range targets {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			ds, err := cat.Acquire(name)
			if err != nil {
				log.Fatalf("preload %s: %v", name, err)
			}
			how := "built"
			if ds.FromSnapshot {
				how = "snapshot"
			}
			if ds.Sharded {
				how = "sharded"
			}
			log.Printf("preloaded %s: %d nodes, %d edges, %s index (%s, %s)",
				name, ds.Nodes(), ds.Edges(), ds.Engine.IndexKind(), how,
				ds.LoadTime.Round(time.Millisecond))
			ds.Release() // stays cached
		}
	}

	cfg := server.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTime,
		MaxRows:          *maxRows,
		CacheBytes:       *cacheB,
		CompactAfter:     *compactN,
		CostQuota:        *costQuota,
		MaxSubs:          *maxSubs,
		SlowLogThreshold: time.Duration(*slowMS) * time.Millisecond,
		SlowLogSize:      *slowSize,
	}

	// Replica mode: tail the primary's delta logs, refuse direct writes,
	// and report /readyz only while every followed dataset is in sync
	// within -max-lag (the router routes around anything that is not).
	// The tailer's gtpq_repl_* metrics share the server's registry so one
	// /metrics scrape covers both.
	var tailer *repl.Tailer
	if *follow != "" {
		var followList []string
		for _, name := range strings.Split(*followDS, ",") {
			if name = strings.TrimSpace(name); name != "" {
				followList = append(followList, name)
			}
		}
		tailer = repl.NewTailer(cat,
			&repl.HTTPClient{BaseURL: strings.TrimRight(*follow, "/")},
			repl.TailerConfig{
				Datasets: followList,
				MaxLag:   *maxLag,
				Seed:     *replSeed,
				Logf:     log.Printf,
			})
		reg := obs.NewRegistry()
		tailer.Register(reg)
		cfg.Registry = reg
		cfg.ReadOnly = true
		cfg.ReadyCheck = tailer.Ready
	}
	switch *logFormat {
	case "text", "":
	case "json":
		cfg.AccessLog = os.Stderr
	default:
		log.Fatalf("invalid -log-format value %q (want text or json)", *logFormat)
	}
	srv := server.New(cat, cfg)

	if tailer != nil {
		if err := tailer.Start(); err != nil {
			log.Fatalf("replication: %v", err)
		}
		log.Printf("replica mode: following %s (max lag %d batches)", *follow, *maxLag)
	}

	if *pprofAddr != "" {
		// pprof stays off the API listener: profiling endpoints expose
		// internals and should bind somewhere tighter (localhost, an
		// ops-only interface). Handlers are mounted explicitly — the
		// blank import would register on DefaultServeMux, which the API
		// server never serves.
		go func() {
			pm := http.NewServeMux()
			pm.HandleFunc("/debug/pprof/", pprof.Index)
			pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
			pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pm); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof: %v", err)
			}
		}()
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting new
	// connections, drain every admitted evaluation and update within
	// the deadline, then flush the delta logs — an acknowledged /update
	// must never be lost to a restart.
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down: draining in-flight work")
		ctx, cancel := context.WithTimeout(context.Background(), *maxTime)
		defer cancel()
		// Standing-query streams first: open SSE connections count as
		// active for Shutdown and would stall the drain until clients
		// hung up on their own.
		srv.CloseSubscriptions()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if err := srv.Drain(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if tailer != nil {
			tailer.Stop() // before Close: no applies against a closing catalog
		}
		if err := cat.Close(); err != nil {
			log.Printf("shutdown: flushing delta logs: %v", err)
		} else {
			log.Print("shutdown: delta logs flushed")
		}
		close(done)
	}()

	log.Printf("listening on %s", *addr)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}

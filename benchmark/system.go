package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/graph"
	"gtpq/internal/graphio"
	"gtpq/internal/repl"
	"gtpq/internal/server"
	"gtpq/internal/shard"
)

// layout is how a workload's dataset is stored and served.
type layout struct {
	shards       int   // 0: one flat d.json; K>0: shard.WriteDir with K wcc shards
	cacheBytes   int64 // server.Config.CacheBytes; 0 disables the result cache
	compactAfter int   // server.Config.CompactAfter
	fleet        bool  // primary + tailing replica + router in front
}

// handlerSpan is one handler invocation as the harness middleware saw it.
type handlerSpan struct {
	layer     string // "server" or "route"
	requestID string
	start     time.Time
	end       time.Time
}

// middleware times a Handler() from outside. It is installed only in a
// traced run; the untraced run serves the bare handler.
type middleware struct {
	layer string
	next  http.Handler
	mu    sync.Mutex
	spans []handlerSpan
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	m.next.ServeHTTP(w, r)
	end := time.Now()
	id := r.Header.Get(requestIDHeader)
	if id == "" {
		return // readiness probes, replication fetches
	}
	m.mu.Lock()
	m.spans = append(m.spans, handlerSpan{layer: m.layer, requestID: id, start: start, end: end})
	m.mu.Unlock()
}

func (m *middleware) take() []handlerSpan {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.spans
	m.spans = nil
	return out
}

const requestIDHeader = "X-GTPQ-Request-ID"

// node is one gtpq-serve process's worth of state, in-process: a
// catalog, the real server over it and a loopback listener.
type node struct {
	cat  *catalog.Catalog
	srv  *server.Server
	http *http.Server
	url  string
	mw   *middleware // nil when untraced
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln) // returns when hs.Close closes the listener
	return hs, "http://" + ln.Addr().String(), nil
}

// startNode serves the real server over cat on a fresh loopback port. It
// owns cat from here on: a failed start closes it.
func startNode(cat *catalog.Catalog, cfg server.Config, traced bool) (*node, error) {
	n := &node{cat: cat, srv: server.New(cat, cfg)}
	h := n.srv.Handler()
	if traced {
		n.mw = &middleware{layer: "server", next: h}
		h = n.mw
	}
	var err error
	if n.http, n.url, err = listen(h); err != nil {
		cat.Close()
		return nil, err
	}
	return n, nil
}

func (n *node) stop() {
	n.srv.CloseSubscriptions()
	n.http.Close()
	n.cat.Close()
}

// system is one workload's program under test, set up from scratch.
type system struct {
	primary *node
	replica *node        // fleet only
	tailer  *repl.Tailer // fleet only
	router  *repl.Router // fleet only
	routeHS *http.Server
	routeMW *middleware
	// clientURL is where the load generator sends: the router for a
	// fleet, the server otherwise.
	clientURL string
	// coldLoad is how long the first Acquire (graph parse + index build,
	// or shard revival) took, timed around the call.
	coldLoad time.Duration
}

// writeDataset stores g under dir the way lay says.
func writeDataset(dir string, g *graph.Graph, lay layout) error {
	if lay.shards > 0 {
		plan, err := shard.Partition(g, lay.shards, shard.ModeWCC)
		if err != nil {
			return err
		}
		_, err = shard.WriteDir(filepath.Join(dir, datasetName), datasetName, g, plan, shard.Options{})
		return err
	}
	var buf bytes.Buffer
	if err := graphio.Save(&buf, g); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, datasetName+".json"), buf.Bytes(), 0o644)
}

// startSystem writes g under dir, cold-loads it and starts the servers.
// dir must be empty.
func startSystem(dir string, g *graph.Graph, lay layout, traced bool) (*system, error) {
	pdir := filepath.Join(dir, "primary")
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		return nil, err
	}
	sys := &system{}
	if err := writeDataset(pdir, g, lay); err != nil {
		return nil, err
	}
	// AutoSnapshot as in `gtpq-serve -snapshots`: compaction and the
	// replica's base re-ship work on the snapshot file.
	pcat, err := catalog.Open(pdir, catalog.Options{AutoSnapshot: true})
	if err != nil {
		return nil, err
	}
	cfg := server.Config{CacheBytes: lay.cacheBytes, CompactAfter: lay.compactAfter}
	if sys.primary, err = startNode(pcat, cfg, traced); err != nil {
		return nil, err
	}
	start := time.Now()
	ds, err := sys.primary.cat.Acquire(datasetName)
	if err != nil {
		sys.stop()
		return nil, err
	}
	sys.coldLoad = time.Since(start)
	ds.Release()
	sys.clientURL = sys.primary.url
	if lay.fleet {
		if err := sys.startFleet(filepath.Join(dir, "replica"), cfg, traced); err != nil {
			sys.stop()
			return nil, err
		}
	}
	return sys, nil
}

// startFleet adds a replica that tails the primary's delta log and a
// router in front of both, and waits until the replica has caught up and
// the router routes to it.
func (sys *system) startFleet(rdir string, cfg server.Config, traced bool) error {
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return err
	}
	rcat, err := catalog.Open(rdir, catalog.Options{})
	if err != nil {
		return err
	}
	sys.tailer = repl.NewTailer(rcat, &repl.HTTPClient{BaseURL: sys.primary.url}, repl.TailerConfig{
		Datasets: []string{datasetName},
		PollWait: 100 * time.Millisecond,
		Backoff:  repl.Backoff{Min: 5 * time.Millisecond, Max: 200 * time.Millisecond},
	})
	rcfg := cfg
	rcfg.ReadOnly = true
	rcfg.CompactAfter = 0 // a replica folds only by re-shipping the primary's base
	rcfg.ReadyCheck = sys.tailer.Ready
	if sys.replica, err = startNode(rcat, rcfg, traced); err != nil {
		return err
	}
	if err := sys.tailer.Start(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.tailer.WaitSync(ctx, datasetName); err != nil {
		return err
	}
	sys.router, err = repl.NewRouter(repl.RouterConfig{
		Primary:        sys.primary.url,
		Replicas:       []string{sys.primary.url, sys.replica.url},
		HealthInterval: 100 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	sys.router.Start() // probes both backends once before returning
	rh := sys.router.Handler()
	if traced {
		sys.routeMW = &middleware{layer: "route", next: rh}
		rh = sys.routeMW
	}
	if sys.routeHS, sys.clientURL, err = listen(rh); err != nil {
		return err
	}
	return nil
}

// stop tears the system down and waits for its goroutines.
func (sys *system) stop() {
	if sys.routeHS != nil {
		sys.routeHS.Close()
	}
	if sys.router != nil {
		sys.router.Stop()
	}
	if sys.tailer != nil {
		sys.tailer.Stop()
	}
	if sys.replica != nil {
		sys.replica.stop()
	}
	if sys.primary != nil {
		sys.primary.stop()
	}
}

// nodes lists the serving nodes (primary first).
func (sys *system) nodes() []*node {
	if sys.replica != nil {
		return []*node{sys.primary, sys.replica}
	}
	return []*node{sys.primary}
}

// handlerSpans drains every middleware's recorded spans.
func (sys *system) handlerSpans() []handlerSpan {
	var out []handlerSpan
	for _, n := range sys.nodes() {
		if n.mw != nil {
			out = append(out, n.mw.take()...)
		}
	}
	if sys.routeMW != nil {
		out = append(out, sys.routeMW.take()...)
	}
	return out
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"gtpq/internal/delta"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
)

// Run shape. A traced invocation first runs untracedShare of its seconds
// untraced on the same system: the client's throughput and median latency
// are the median of that stretch's plainWindows windows, and the tracing
// overhead is a difference taken within one process.
const (
	plainWindows  = 5
	untracedShare = 0.5
	// setupRepeats is how many times an untraced invocation sets the whole
	// system up from nothing; setup_s is the median. On a recorded series
	// of 719 set-ups neither seven repeats nor their minimum repeated
	// better from invocation to invocation (results/spread.md).
	setupRepeats = 3
	// tailWrites is the length of the write stream a read-only workload's
	// traced run sends after its reads, so that the write-path layers have
	// figures on every dataset.
	tailWrites = 8
	// cacheShards mirrors qcache's split of its byte budget over 16
	// shards by a per-process random hash: a cache "fits" a population
	// only when one shard's slice could hold all of it.
	cacheShards = 16
	// populationSeed draws the label instantiations and random TPQs of the
	// query populations and the write stream's anchors.
	populationSeed = 1
)

// runConfig is one invocation: one workload, one seed, one trace mode.
type runConfig struct {
	wl      workload
	sc      scale
	seed    int64
	seconds float64
	traced  bool
	workDir string // scratch space; removed when the run ends
	outDir  string // where trace-<workload>.jsonl goes
	logf    func(format string, args ...interface{})
}

// runResult is what one invocation reports.
type runResult struct {
	Attempted int
	Failed    int
	Metrics   *metricSet
	failures  []string // first few failure descriptions
}

func (r *runResult) fail(n int, format string, args ...interface{}) {
	r.Failed += n
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// inputs are what the harness prepares before any timing starts: the
// query population with its reference answers, and where the write stream
// attaches. They are fixed per workload (see workload.data); the run's
// seed drives only the traffic.
type inputs struct {
	g       *graph.Graph // the generated graph (kept for the final fleet check and the probes)
	ref     *gtea.Engine // paper-order engine over g, with its own index
	queries []*query
	anc     anchors
	lay     layout
}

func prepareInputs(cfg runConfig) (*inputs, error) {
	in := &inputs{g: cfg.wl.data(cfg.sc), lay: cfg.wl.lay}
	var err error
	if in.ref, err = gtea.NewWithOptions(in.g, gtea.Options{NoPlan: true}); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(populationSeed))
	if in.queries, err = cfg.wl.queries(r, in.g, in.ref, cfg.sc); err != nil {
		return nil, err
	}
	if err := computeReferences(in.ref, in.queries); err != nil {
		return nil, err
	}
	if in.anc, err = pickAnchors(in.g, r, cfg.wl.anchorLabel); err != nil {
		return nil, err
	}
	if cfg.wl.cacheFits {
		var total int64
		for _, q := range in.queries {
			total += q.answerBytes + int64(len(q.text)) + 256
		}
		in.lay.cacheBytes = cacheShards * total
	}
	return in, nil
}

// setUp builds the system from nothing — generate the graph, write it,
// cold-load it, start the servers — and returns once a first response
// has been verified. The elapsed time is one setup_s observation.
func setUp(cfg runConfig, in *inputs, dir string) (*system, time.Duration, error) {
	start := time.Now()
	g := cfg.wl.data(cfg.sc)
	sys, err := startSystem(dir, g, in.lay, cfg.traced)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(0, sys.clientURL, false)
	defer c.close()
	if res := c.read(in.queries[0], cfg.wl.modes[0]); !res.ok {
		sys.stop()
		return nil, 0, fmt.Errorf("first response after set-up: %s", res.detail)
	}
	return sys, time.Since(start), nil
}

// runReaders is one stretch of load: every reader runs closed-loop until
// the deadline, and the reads are returned per client.
func runReaders(in *inputs, url string, traced bool, seqs []sequence, deadline time.Time) [][]readResult {
	out := make([][]readResult, len(seqs))
	var wg sync.WaitGroup
	for i := range seqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(i+1, url, traced)
			defer c.close()
			out[i] = runClosedLoop(c, in.queries, seqs[i], deadline)
		}(i)
	}
	wg.Wait()
	return out
}

// warmUp sends every distinct query once (split over the readers), so
// that caches are filled, pools are warm and lazy loads are done before
// timing starts. In a traced run these are the responses the exact
// per-query counts and stage times are read from: one per distinct
// query, whatever the closed loop later gets round to.
func warmUp(cfg runConfig, in *inputs, url string) []readResult {
	mode := cfg.wl.modes[0]
	if mode == deliverNDJSON {
		mode = deliverPaged // NDJSON responses carry no plan or span tree
	}
	n := cfg.wl.readers
	parts := make([][]readResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(i+1, url, cfg.traced)
			defer c.close()
			for qi := i; qi < len(in.queries); qi += n {
				res := c.read(in.queries[qi], mode)
				res.qi = qi
				parts[i] = append(parts[i], res)
			}
		}(i)
	}
	wg.Wait()
	var out []readResult
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func (cfg runConfig) sequences(n int) []sequence {
	seqs := make([]sequence, cfg.wl.readers)
	for i := range seqs {
		if cfg.wl.zipf {
			seqs[i] = newZipfSeq(clientSeed(cfg.seed, i), n, 1.1, cfg.wl.modes)
		} else {
			seqs[i] = newCycleSeq(clientSeed(cfg.seed, i), n, cfg.wl.modes)
		}
	}
	return seqs
}

// writeStream is the open-loop writer with its standing query attached.
type writeStream struct {
	w       *writer
	sub     *subscriber
	timings []opTiming
	wg      sync.WaitGroup
}

// startWrites attaches the standing query and starts the open-loop
// writer: one batch every interval from start until deadline.
func startWrites(cfg runConfig, in *inputs, sys *system, start, deadline time.Time, interval time.Duration) (*writeStream, error) {
	sb, err := subscribe(sys.primary.srv.Subs(), in.anc.standingQuery())
	if err != nil {
		return nil, err
	}
	sys.primary.srv.Subs().Sync(datasetName) // initial evaluation done before the first write
	ws := &writeStream{sub: sb}
	ws.w = newWriter(newClient(100, sys.clientURL, false), cfg.seed+1, in.anc, in.g.N())
	ws.wg.Add(1)
	go func() {
		defer ws.wg.Done()
		ws.timings = runOpenLoop(start, interval, deadline, ws.w.send)
	}()
	return ws, nil
}

// finish waits for the writer and for every pending notification.
func (ws *writeStream) finish(sys *system) {
	ws.wg.Wait()
	ws.w.c.close()
	sys.primary.srv.Subs().Sync(datasetName)
	ws.sub.close()
}

// heapSampler records the peak of the live heap's object bytes at 4 Hz.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// runWorkload performs one invocation end to end.
func runWorkload(cfg runConfig) (*runResult, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)

	in, err := prepareInputs(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: preparing inputs: %w", cfg.wl.name, err)
	}
	cfg.logf("%s: %d nodes, %d edges, %d distinct queries", cfg.wl.name, in.g.N(), in.g.M(), len(in.queries))

	// Set-up, from nothing each time; the last system is the one measured.
	repeats := setupRepeats
	if cfg.traced {
		repeats = 1
	}
	var sys *system
	var setups []float64
	for i := 0; i < repeats; i++ {
		if sys != nil {
			sys.stop()
		}
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("sys%d", i))
		var d time.Duration
		if sys, d, err = setUp(cfg, in, dir); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.wl.name, err)
		}
		cfg.logf("%s: set-up %d: %.3fs", cfg.wl.name, i, d.Seconds())
		setups = append(setups, d.Seconds())
		if i > 0 {
			os.RemoveAll(filepath.Join(cfg.workDir, fmt.Sprintf("sys%d", i-1)))
		}
	}
	defer sys.stop()
	if !cfg.traced {
		// The untraced run needs the harness's own copy of the graph and
		// index only for the final fleet check; dropping it keeps
		// heap_live_mb about the program under test.
		in.ref = nil
		if !in.lay.fleet {
			in.g = nil
		}
	}

	res := &runResult{}
	warm := warmUp(cfg, in, sys.clientURL)
	res.count(warm)
	sys.handlerSpans() // warm-up handler spans are not part of the traced segment

	// The measured run. The write stream, where there is one, runs across
	// all of it.
	total := time.Duration(cfg.seconds * float64(time.Second))
	seqs := cfg.sequences(len(in.queries))
	var wst *writeStream
	if cfg.wl.writeRate > 0 {
		start, interval := time.Now(), time.Second/time.Duration(cfg.wl.writeRate)
		if wst, err = startWrites(cfg, in, sys, start, start.Add(total), interval); err != nil {
			return nil, err
		}
	}
	if cfg.traced {
		err = measureTraced(cfg, in, sys, res, warm, seqs, total, wst)
	} else {
		measureUntraced(in, sys, res, median(setups), seqs, total, wst)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: layer probes: %w", cfg.wl.name, err)
	}
	return res, res.Metrics.complete()
}

// measureUntraced runs the load for the whole of total and reports the
// end-to-end metrics.
func measureUntraced(in *inputs, sys *system, res *runResult, setupS float64, seqs []sequence, total time.Duration, wst *writeStream) {
	for _, p := range runReaders(in, sys.clientURL, false, seqs, time.Now().Add(total)) {
		res.count(p)
	}
	if wst != nil {
		wst.finish(sys)
		res.countWrites(wst)
		res.checkFleet(in, sys, wst)
	}
	res.Metrics = newMetricSet(endToEnd)
	res.Metrics.set("setup_s", setupS, setupRepeats)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Metrics.set("heap_live_mb", float64(ms.HeapAlloc)/(1<<20), 0)
}

// measureTraced runs an untraced segment and then a traced one on the
// same system, and turns what they recorded into the per-layer metrics.
func measureTraced(cfg runConfig, in *inputs, sys *system, res *runResult, warm []readResult, seqs []sequence, total time.Duration, wst *writeStream) error {
	lagStop := sampleReplicaLag(sys)
	heap := startHeapSampler()
	began := time.Now()
	plainFor := time.Duration(float64(total) * untracedShare)
	plain := runReaders(in, sys.clientURL, false, seqs, began.Add(plainFor))
	traced := runReaders(in, sys.clientURL, true, seqs, began.Add(total))
	total = time.Since(began)
	heapPeakMB, maxLag := heap.finish(), lagStop()
	if wst != nil {
		wst.finish(sys)
	}
	for _, p := range plain {
		res.count(p)
	}
	for _, p := range traced {
		res.count(p)
	}
	res.Metrics = newMetricSet(perLayer)
	lr := &layerRun{
		cfg: cfg, in: in, sys: sys, res: res,
		warm: warm, plain: plain, traced: traced,
		start: began, plainFor: plainFor, total: total,
		heapPeakMB: heapPeakMB, maxLag: maxLag, ws: wst,
	}
	return lr.measure()
}

// count adds finished reads to the attempted/failed totals.
func (r *runResult) count(reads []readResult) {
	for _, rd := range reads {
		r.Attempted++
		if !rd.ok {
			r.fail(1, "read: %s", rd.detail)
		}
	}
}

// countWrites adds the write stream's operations and the standing
// query's notifications to the totals.
func (r *runResult) countWrites(ws *writeStream) {
	for _, t := range ws.timings {
		r.Attempted++
		if t.err != nil {
			r.fail(1, "update: %v", t.err)
		}
	}
	if _, bad := ws.sub.notifyLatencies(ws.w); bad > 0 {
		r.fail(bad, "standing query: %d notifications missing or wrong", bad)
	}
}

// checkFleet is the end-of-run convergence check: once the writer has
// stopped and the replica has caught up, the primary, the replica and a
// from-scratch engine over base + every acknowledged batch must all give
// every query's reference answer.
func (r *runResult) checkFleet(in *inputs, sys *system, ws *writeStream) {
	if sys.tailer == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.tailer.WaitSync(ctx, datasetName); err != nil {
		r.Attempted++
		r.fail(1, "replica did not converge: %v", err)
		return
	}
	for _, n := range sys.nodes() {
		c := newClient(0, n.url, false)
		for _, q := range in.queries {
			r.count([]readResult{c.read(q, deliverJSON)})
		}
		c.close()
	}
	ext, err := delta.Extend(in.g, ws.w.batches)
	if err != nil {
		r.Attempted++
		r.fail(1, "extending the base graph: %v", err)
		return
	}
	scratch := gtea.New(ext)
	for _, q := range in.queries {
		r.Attempted++
		if got := hashAnswer(scratch.Eval(q.q)); got != q.ref {
			r.fail(1, "from-scratch %s: %d rows hash %x, reference %d rows hash %x", q.class, got.rows, got.h, q.ref.rows, q.ref.h)
		}
	}
}

// sampleReplicaLag polls the tailer's batch lag every 5 ms; the returned
// func stops the sampling and yields the maximum seen (0 without a fleet).
func sampleReplicaLag(sys *system) func() int64 {
	if sys.tailer == nil {
		return func() int64 { return 0 }
	}
	stop := make(chan struct{})
	done := make(chan int64)
	go func() {
		var maxLag int64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if lag, ok := sys.tailer.Lag(datasetName); ok && lag > maxLag {
				maxLag = lag
			}
			select {
			case <-stop:
				done <- maxLag
				return
			case <-tick.C:
			}
		}
	}()
	return func() int64 {
		close(stop)
		return <-done
	}
}

package main

import (
	"bufio"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gtpq/internal/gtea"
	"gtpq/internal/obs"
	"gtpq/internal/repl"
)

// probeQueries is how many of the population's first queries the
// direct-call probes evaluate. Populations are interleaved by class, so a
// prefix has the population's mix.
const probeQueries = 24

// maxTraceSpans caps the spans written to the trace file; a cache-hit
// workload produces several hundred thousand in a few seconds.
const maxTraceSpans = 50000

// layerRun holds a traced invocation's raw observations and turns them
// into the per-layer metrics.
type layerRun struct {
	cfg runConfig
	in  *inputs
	sys *system
	res *runResult

	warm   []readResult   // one read per distinct query, ?debug=1
	plain  [][]readResult // untraced segment, per client
	traced [][]readResult // traced segment, per client

	start      time.Time     // of the measured run; span times count from it
	plainFor   time.Duration // nominal length of the untraced segment
	total      time.Duration // length of the measured run, both segments
	heapPeakMB float64
	maxLag     int64
	ws         *writeStream // fleet_rw's concurrent write stream, or nil
}

func (lr *layerRun) measure() error {
	m := lr.res.Metrics
	hs := lr.sys.handlerSpans()

	lr.clientMetrics(hs)
	lr.warmUpMetrics()
	// The direct calls and the route probe check answers against the
	// references, so they come before a read-only workload's tail writes:
	// a wildcard query node matches the leaves those writes add.
	probes, err := lr.directProbes()
	if err != nil {
		return err
	}
	lr.shareMetrics(hs, probes)
	if err := lr.routeProbe(); err != nil {
		return err
	}

	// Read-only workloads get a short write stream now, after their reads,
	// so that the write-path layers have figures on this dataset too.
	ws := lr.ws
	if ws == nil {
		start, gap := time.Now(), lr.cfg.sc.tailWriteGap
		if ws, err = startWrites(lr.cfg, lr.in, lr.sys, start, start.Add(tailWrites*gap), gap); err != nil {
			return err
		}
		ws.finish(lr.sys)
	}
	lr.res.countWrites(ws)
	lr.res.checkFleet(lr.in, lr.sys, ws)
	lr.writeMetrics(ws)
	lr.counterMetrics()
	if err := lr.storageProbes(); err != nil {
		return err
	}
	m.set("server.stream_heap_peak_mb", lr.heapPeakMB, 0)
	m.set("repl.lag_batches_max", float64(lr.maxLag), 0)
	return nil
}

func okReads(parts [][]readResult) []readResult {
	var out []readResult
	for _, p := range parts {
		for _, rd := range p {
			if rd.ok {
				out = append(out, rd)
			}
		}
	}
	return out
}

func latenciesMS(reads []readResult) []float64 {
	out := make([]float64, len(reads))
	for i, rd := range reads {
		out[i] = ms(rd.latency)
	}
	return out
}

// clientMetrics are the figures read off the client and handler spans of
// the traced segment alone.
func (lr *layerRun) clientMetrics(hs []handlerSpan) {
	m := lr.res.Metrics
	plain, traced := okReads(lr.plain), okReads(lr.traced)
	all := append(append([]readResult(nil), plain...), traced...)

	w := medianWindow(cutWindows(plain, lr.start, lr.plainFor/plainWindows, plainWindows))
	m.set("client.qps", w.qps, w.n)
	m.set("client.query_p50_ms", w.p50, w.n)
	m.set("client.query_p95_ms", percentile(latenciesMS(all), 0.95), len(all))
	m.set("client.query_p99_ms", percentile(latenciesMS(all), 0.99), len(all))
	ttfr := make([]float64, len(all))
	rowsRead := 0
	for i, rd := range all {
		ttfr[i] = ms(rd.ttfr)
		rowsRead += rd.rows
	}
	m.set("client.ttfr_p50_ms", percentile(ttfr, 0.5), len(all))
	m.set("client.rows_per_s", float64(rowsRead)/lr.total.Seconds(), rowsRead)
	plainP50 := percentile(latenciesMS(plain), 0.5)
	tracedP50 := percentile(latenciesMS(traced), 0.5)
	m.set("trace.overhead_share", (tracedP50-plainP50)/plainP50, len(traced))

	var handler []float64
	for _, h := range hs {
		if h.layer == "server" {
			handler = append(handler, ms(h.end.Sub(h.start)))
		}
	}
	handlerP50 := percentile(handler, 0.5)
	m.set("server.handler_ms", handlerP50, len(handler))
	// A paged drain is several exchanges; compare like with like.
	var perExchange []float64
	for _, rd := range traced {
		perExchange = append(perExchange, ms(rd.latency)/float64(len(rd.requestIDs)))
	}
	m.set("http.transport_ms", percentile(perExchange, 0.5)-handlerP50, len(perExchange))

	var shed, attempted int
	var rows, bytes int64
	for _, parts := range [][][]readResult{lr.plain, lr.traced} {
		for _, p := range parts {
			for _, rd := range p {
				attempted++
				if rd.shed {
					shed++
				}
				if rd.ok {
					rows += int64(rd.rows)
					bytes += rd.bytes
				}
			}
		}
	}
	m.set("server.shed_share", float64(shed)/float64(attempted), attempted)
	m.set("server.bytes_per_row", float64(bytes)/math.Max(1, float64(rows)), int(rows))
}

// stageDurations sums a span tree's durations by span name. A sharded
// evaluation has one set of engine stages per shard; they add up.
func stageDurations(s *obs.Span, into map[string]float64) {
	if s == nil {
		return
	}
	if s.Millis > 0 {
		into[s.Name] += s.Millis
	}
	for _, c := range s.Children {
		stageDurations(c, into)
	}
}

// shardSpread is slowest shard ÷ mean shard for one evaluation's shard_N
// spans (0 when there are none).
func shardSpread(root *obs.Span) float64 {
	if root == nil {
		return 0
	}
	var durs []float64
	for _, c := range root.Children {
		if strings.HasPrefix(c.Name, "shard_") {
			durs = append(durs, c.Millis)
		}
	}
	if len(durs) == 0 || mean(durs) == 0 {
		return 0
	}
	slowest := 0.0
	for _, d := range durs {
		slowest = math.Max(slowest, d)
	}
	return slowest / mean(durs)
}

// warmUpMetrics reads the exact per-query counts, the plan records and
// the engine's stage times off the warm-up pass: one fresh evaluation per
// distinct query, so the figures do not depend on how often the closed
// loop got round to each query.
func (lr *layerRun) warmUpMetrics() {
	m := lr.res.Metrics
	var input, pruneInput, enumInput, intermediate, lookups, results float64
	var planNodes, multiway int
	var misestimates, spreads []float64
	stages := map[string]float64{}
	n := 0
	for _, rd := range lr.warm {
		if !rd.ok || rd.cached || rd.stats == nil {
			continue // the set-up's first response left one query cached
		}
		n++
		input += float64(rd.stats.Input)
		pruneInput += float64(rd.stats.PruneInput)
		enumInput += float64(rd.stats.EnumInput)
		intermediate += float64(rd.stats.Intermediate)
		lookups += float64(rd.stats.IndexLookups)
		results += float64(rd.rows)
		if rd.plan != nil {
			for _, pn := range rd.plan.Nodes {
				planNodes++
				if pn.Kernel == gtea.KernelMultiway {
					multiway++
				}
				if pn.EstCands > 0 && pn.InitCands > 0 {
					misestimates = append(misestimates, math.Abs(math.Log2(float64(pn.EstCands)/float64(pn.InitCands))))
				}
			}
		}
		if len(rd.trees) > 0 {
			stageDurations(rd.trees[0], stages)
			if s := shardSpread(rd.trees[0]); s > 0 {
				spreads = append(spreads, s)
			}
		}
	}
	per := func(x float64) float64 { return x / math.Max(1, float64(n)) }
	m.set("gtea.input_per_query", per(input), n)
	m.set("gtea.prune_input_per_query", per(pruneInput), n)
	m.set("gtea.enum_input_per_query", per(enumInput), n)
	m.set("gtea.intermediate_per_query", per(intermediate), n)
	m.set("gtea.results_per_query", per(results), n)
	m.set("gtea.input_per_result", input/math.Max(1, results), n)
	m.set("reach.lookups_per_query", per(lookups), n)
	m.set("gtea.multiway_share", float64(multiway)/math.Max(1, float64(planNodes)), planNodes)
	m.set("gtea.plan_misestimate", median(misestimates), len(misestimates))
	m.set("shard.slowest_over_mean", mean(spreads), len(spreads))

	m.set("gtea.plan_us", per(stages["plan"])*1000, n)
	m.set("gtea.candidates_ms", per(stages["candidates"]), n)
	m.set("gtea.prune_down_ms", per(stages["prune_down"]), n)
	m.set("gtea.prune_up_ms", per(stages["prune_up"]), n)
	m.set("gtea.enumerate_ms", per(stages["enumerate"]), n)
	m.set("server.admit_wait_ms", per(stages["admit"]), n)
}

// counterMetrics reads the counters the program already keeps: the
// result caches', the standing-query registry's, the catalog's and the
// router's. Every system is fresh, so totals are this run's.
func (lr *layerRun) counterMetrics() {
	m := lr.res.Metrics
	var hits, misses, evictions, coalesced int64
	for _, n := range lr.sys.nodes() {
		if c := n.srv.Cache(); c != nil {
			st := c.Stats()
			hits += st.Hits
			misses += st.Misses
			evictions += st.Evictions
			coalesced += st.Coalesced
		}
	}
	m.set("qcache.hit_ratio", float64(hits)/math.Max(1, float64(hits+misses)), int(hits+misses))
	m.set("qcache.evictions", float64(evictions), 0)
	m.set("qcache.coalesced", float64(coalesced), 0)

	retries, reads := 0.0, 0.0
	if lr.sys.router != nil {
		retries, reads = routerCounters(lr.sys.clientURL)
	}
	m.set("route.retry_share", retries/math.Max(1, reads), int(reads))
}

// routerCounters scrapes the router's /metrics for its retry and request
// totals.
func routerCounters(url string) (retries, requests float64) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		switch {
		case fields[0] == "gtpq_router_retries_total":
			retries = v
		case strings.HasPrefix(fields[0], "gtpq_router_requests_total"):
			requests += v
		}
	}
	return retries, requests
}

// writeMetrics are the write path as the writing client saw it, the
// standing query's freshness, and what compactions did to reads.
func (lr *layerRun) writeMetrics(ws *writeStream) {
	m := lr.res.Metrics
	var lat, late []float64
	for _, t := range ws.timings {
		if t.err == nil {
			lat = append(lat, ms(t.latency()))
			late = append(late, ms(t.lateness()))
		}
	}
	m.set("client.update_p50_ms", percentile(lat, 0.5), len(lat))
	m.set("client.update_p95_ms", percentile(lat, 0.95), len(lat))
	m.set("client.sched_lag_p95_ms", percentile(late, 0.95), len(late))

	notify, _ := ws.sub.notifyLatencies(ws.w)
	m.set("sub.notify_p50_ms", percentile(notify, 0.5), len(notify))
	st := lr.sys.primary.srv.Subs().Stats()
	decided := math.Max(1, float64(st.Skips+st.RestrictedEvals+st.FullEvals))
	m.set("sub.skip_share", float64(st.Skips)/decided, int(decided))
	m.set("sub.restricted_share", float64(st.RestrictedEvals)/decided, int(decided))
	m.set("sub.full_share", float64(st.FullEvals)/decided, int(decided))
	m.set("catalog.compactions", float64(lr.sys.primary.cat.Compactions(datasetName)), 0)

	// Reads beside compactions (fleet_rw only; 0 elsewhere). The stall is
	// the slowest read overlapping a compaction over the run's median
	// read; the pending ratio compares the half second of reads before a
	// compaction (longest overlay) with the half second after it (none).
	reads := append(okReads(lr.plain), okReads(lr.traced)...)
	runP50 := percentile(latenciesMS(reads), 0.5)
	var stalls, pending []float64
	for _, iv := range ws.w.compacted {
		var worst float64
		var before, after []float64
		for _, rd := range reads {
			end := rd.start.Add(rd.latency)
			if rd.start.Before(iv[1]) && end.After(iv[0]) {
				worst = math.Max(worst, ms(rd.latency))
			}
			if end.Before(iv[0]) && end.After(iv[0].Add(-500*time.Millisecond)) {
				before = append(before, ms(rd.latency))
			}
			if rd.start.After(iv[1]) && rd.start.Before(iv[1].Add(500*time.Millisecond)) {
				after = append(after, ms(rd.latency))
			}
		}
		if worst > 0 && runP50 > 0 {
			stalls = append(stalls, worst/runP50)
		}
		if len(before) > 0 && len(after) > 0 {
			pending = append(pending, percentile(before, 0.5)/percentile(after, 0.5))
		}
	}
	if lr.ws == nil {
		stalls, pending = nil, nil // the tail write stream has no reads beside it
	}
	m.set("catalog.compact_stall_ratio", mean(stalls), len(stalls))
	m.set("delta.pending_read_ratio", mean(pending), len(pending))
}

// routeProbe prices the router hop: the same query sent alternately
// through a router and straight to the primary, median against median.
// A fleet uses its own router; elsewhere a probe router is put in front
// of the server for the occasion.
func (lr *layerRun) routeProbe() error {
	via := lr.sys.clientURL
	if lr.sys.router == nil {
		rt, err := repl.NewRouter(repl.RouterConfig{Primary: lr.sys.primary.url})
		if err != nil {
			return err
		}
		rt.Start()
		defer rt.Stop()
		hs, url, err := listen(rt.Handler())
		if err != nil {
			return err
		}
		defer hs.Close()
		via = url
	}
	// The cheapest query of the probe set: the hop is a constant, and a
	// short request shows it best.
	q := lr.in.queries[0]
	for _, c := range lr.in.queries[:min(probeQueries, len(lr.in.queries))] {
		if c.ref.rows < q.ref.rows {
			q = c
		}
	}
	direct, routed := newClient(0, lr.sys.primary.url, false), newClient(0, via, false)
	defer direct.close()
	defer routed.close()
	var d, r []float64
	for i := 0; i < 60; i++ {
		a, b := direct.read(q, deliverJSON), routed.read(q, deliverJSON)
		if i < 10 || !a.ok || !b.ok {
			continue // connections and caches settle first
		}
		d = append(d, ms(a.latency))
		r = append(r, ms(b.latency))
	}
	lr.res.Metrics.set("route.hop_ms", median(r)-median(d), len(r))
	return nil
}

// requestBreakdown is where one traced request's wall time went, in ns.
type requestBreakdown struct {
	client      int64 // the client span
	http        int64 // client span not covered by a handler span (incl. the router hop)
	handlerSelf int64 // server handler spans not covered by the server's own span tree
	serverTree  int64 // the tree's root self time and admit
	gtea        int64 // wall time with an engine stage open
	shard       int64 // wall time inside a shard span (or a sharded stream) with no engine stage open
}

// shareMetrics assembles the spans of the traced segment, writes them
// out, and reports which layer owned what share of the client's time.
// The handler's self time is split further with the direct-call figures
// of the request's own query, so shares are taken over the requests whose
// query is in the probe set.
func (lr *layerRun) shareMetrics(hs []handlerSpan, probes []queryProbe) {
	m := lr.res.Metrics
	byID := map[string][]handlerSpan{}
	for _, h := range hs {
		byID[h.requestID] = append(byID[h.requestID], h)
	}
	rec := &recorder{}
	ns := func(t time.Time) int64 { return t.Sub(lr.start).Nanoseconds() }
	sharded := lr.in.lay.shards > 0
	layerOf := func(name string) string {
		switch {
		case name == "query" || name == "admit":
			return "server"
		case strings.HasPrefix(name, "shard_"):
			return "shard"
		case name == "stream" && sharded:
			return "shard" // the drain is mostly shard.MergeCursors
		}
		return "gtea"
	}

	var sum requestBreakdown
	var pieces, engineEst, unattributed, handlerSelfMS float64
	n := 0
	for _, rd := range okReads(lr.traced) {
		cs := span{Request: rd.requestIDs[0], Layer: "client", Name: deliveryName(rd.mode),
			StartNs: ns(rd.start), EndNs: ns(rd.start.Add(rd.latency))}
		cs.ID = rec.add(cs)
		var bd requestBreakdown
		bd.client = cs.dur()
		var top, gteaIvs, shardIvs []span
		for k, id := range rd.requestIDs {
			parent := cs
			var server *span
			for _, layer := range []string{"route", "server"} {
				for _, h := range byID[id] {
					if h.layer != layer {
						continue
					}
					s := span{Parent: parent.ID, Request: id, Layer: layer, Name: "handler", StartNs: ns(h.start), EndNs: ns(h.end)}
					s.ID = rec.add(s)
					if parent.ID == cs.ID {
						top = append(top, s)
					}
					parent = s
					if layer == "server" {
						server = &s
					}
				}
			}
			if server == nil {
				continue
			}
			bd.handlerSelf += server.dur()
			if k < len(rd.trees) && rd.trees[k] != nil {
				first := len(rec.spans)
				rec.addTree(rd.trees[k], *server, layerOf)
				tree := rec.spans[first:]
				root := tree[0]
				bd.handlerSelf -= root.dur()
				var kids []span
				for _, s := range tree[1:] {
					if s.Parent == root.ID {
						kids = append(kids, s)
					}
					switch s.Layer {
					case "gtea":
						gteaIvs = append(gteaIvs, s)
						shardIvs = append(shardIvs, s)
					case "shard":
						shardIvs = append(shardIvs, s)
					case "server": // admit
						bd.serverTree += s.dur()
					}
				}
				bd.serverTree += selfTime(root, kids)
			}
		}
		bd.http = selfTime(cs, top)
		bd.gtea = covered(cs, gteaIvs)
		bd.shard = covered(cs, shardIvs) - bd.gtea
		if bd.handlerSelf < 0 {
			bd.handlerSelf = 0
		}

		if rd.qi >= len(probes) {
			continue
		}
		// Split the handler's self time: first what a treeless (NDJSON)
		// evaluation cost by direct call, then the named server-side
		// functions; what is left has no name yet.
		p := probes[rd.qi]
		rest := float64(bd.handlerSelf)
		var e float64
		if len(rd.trees) == 0 || rd.trees[0] == nil {
			e = math.Min(rest, p.cursorDrainNs)
		}
		rest -= e
		named := math.Min(rest, p.serverPiecesNs(rd.cached, rd.mode))
		rest -= named
		n++
		sum.client += bd.client
		sum.http += bd.http
		sum.serverTree += bd.serverTree
		sum.gtea += bd.gtea
		sum.shard += bd.shard
		sum.handlerSelf += bd.handlerSelf
		engineEst += e
		pieces += named
		unattributed += rest
		handlerSelfMS += float64(bd.handlerSelf) / 1e6
	}
	total := math.Max(1, float64(sum.client))
	m.set("http.time_share", float64(sum.http)/total, n)
	m.set("gtea.time_share", (float64(sum.gtea)+engineEst)/total, n)
	m.set("shard.time_share", float64(sum.shard)/total, n)
	m.set("server.time_share", (float64(sum.handlerSelf)-engineEst+float64(sum.serverTree))/total, n)
	m.set("trace.unattributed_share", unattributed/total, n)
	m.set("server.self_ms", handlerSelfMS/math.Max(1, float64(n)), n)

	if len(rec.spans) > maxTraceSpans {
		rec.spans = rec.spans[:maxTraceSpans]
	}
	path := filepath.Join(lr.cfg.outDir, "trace-"+lr.cfg.wl.name+".jsonl")
	if err := rec.writeJSONL(path); err != nil {
		lr.cfg.logf("%s: writing %s: %v", lr.cfg.wl.name, path, err)
	}
}

func deliveryName(d delivery) string {
	return [...]string{"json", "ndjson", "paged"}[d]
}

// timeIt runs f reps times and returns the mean duration in ns.
func timeIt(reps int, f func()) float64 {
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}

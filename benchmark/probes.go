package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/core"
	"gtpq/internal/delta"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/qcache"
	"gtpq/internal/qlang"
	"gtpq/internal/reach"
	"gtpq/internal/shard"
	"gtpq/internal/snapshot"
)

// queryProbe is what one query costs in each layer when the layer's
// public function is called directly, from one goroutine, in ns.
type queryProbe struct {
	parseNs, formatNs, estimateNs float64
	cacheGetNs, acquireNs         float64
	encodeJSONNs, encodeNDJSONNs  float64
	cursorDrainNs                 float64
}

// serverPiecesNs is the server-side work with a name that a request for
// this query did outside its span tree.
func (p queryProbe) serverPiecesNs(cached bool, mode delivery) float64 {
	ns := p.parseNs + p.formatNs + p.estimateNs + p.acquireNs
	if cached {
		ns += p.cacheGetNs
	}
	if mode == deliverNDJSON {
		return ns + p.encodeNDJSONNs
	}
	return ns + p.encodeJSONNs
}

// wireResult has the shape and field order of the server's JSON answer,
// for pricing its encode.
type wireResult struct {
	Dataset string           `json:"dataset"`
	Columns []string         `json:"columns"`
	Rows    [][]graph.NodeID `json:"rows"`
	Cached  bool             `json:"cached"`
	Stats   *respStats       `json:"stats"`
}

type wireRow struct {
	Row []graph.NodeID `json:"row"`
}

// directProbes calls each layer's public functions on the first
// probeQueries queries, against the live dataset's engine.
func (lr *layerRun) directProbes() ([]queryProbe, error) {
	m := lr.res.Metrics
	cat := lr.sys.primary.cat
	ds, err := cat.Acquire(datasetName)
	if err != nil {
		return nil, err
	}
	defer ds.Release()

	acquireNs := timeIt(200, func() {
		if d, err := cat.Acquire(datasetName); err == nil {
			d.Release()
		}
	})
	qs := lr.in.queries[:min(probeQueries, len(lr.in.queries))]
	probes := make([]queryProbe, len(qs))
	// One shard's slice of this budget holds any answer of the probe set.
	scratch := qcache.New(cacheShards << 30)
	ctx := context.Background()
	var evalMS, pruneMS, enumMS, allocs, ttfrMS, cursorRows, cursorSec float64
	// Sharded datasets only: a flat engine with the default options, as a
	// flat dataset's has, over the union graph, so that shard.vs_flat_ratio
	// compares sharded with flat and nothing else.
	var flat *gtea.Engine
	if se, ok := ds.Engine.(*shard.ShardedEngine); ok {
		flat = gtea.New(se.Union())
	}
	var sharedFlat, sharedSharded float64
	var mem runtime.MemStats
	for i, q := range qs {
		p := &probes[i]
		p.acquireNs = acquireNs
		p.parseNs = timeIt(5, func() { qlang.Parse(q.text) })
		p.formatNs = timeIt(5, func() { qlang.Format(q.q) })
		if ds.Card != nil {
			p.estimateNs = timeIt(5, func() { ds.Card.EstimateQuery(q.q) })
		}

		runtime.ReadMemStats(&mem)
		before := mem.Mallocs
		ans, st, err := ds.Engine.EvalStatsCtx(ctx, q.q)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&mem)
		allocs += float64(mem.Mallocs - before)
		evalMS += ms(st.TotalTime)
		pruneMS += ms(st.PruneTime)
		enumMS += ms(st.TotalTime - st.PruneTime)
		if got := hashAnswer(ans); got != q.ref {
			lr.res.Attempted++
			lr.res.fail(1, "direct evaluation of %s differs from the reference", q.class)
		}
		if flat != nil {
			sharedSharded += ms(st.TotalTime)
			_, fst, err := flat.EvalStatsCtx(ctx, q.q)
			if err != nil {
				return nil, err
			}
			sharedFlat += ms(fst.TotalTime)
		}

		start := time.Now()
		cur, _, err := ds.Engine.EvalCursor(ctx, q.q)
		if err != nil {
			return nil, err
		}
		rows := 0
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
			if rows == 0 {
				ttfrMS += ms(time.Since(start))
			}
			rows++
		}
		cur.Close()
		drain := time.Since(start)
		if rows == 0 {
			ttfrMS += ms(drain)
		}
		p.cursorDrainNs = float64(drain.Nanoseconds())
		cursorRows += float64(rows)
		cursorSec += drain.Seconds()

		key := qcache.Key{Dataset: datasetName, Generation: ds.Generation, Query: q.text, Index: ds.Engine.IndexKind()}
		scratch.Put(key, ans)
		p.cacheGetNs = timeIt(20, func() { scratch.Get(key) })

		res := wireResult{Dataset: datasetName, Columns: columnNames(q.q, ans), Rows: ans.Tuples, Stats: &respStats{}}
		p.encodeJSONNs = timeIt(1, func() { json.NewEncoder(io.Discard).Encode(res) })
		p.encodeNDJSONNs = timeIt(1, func() {
			enc := json.NewEncoder(io.Discard)
			for _, t := range ans.Tuples {
				enc.Encode(wireRow{Row: t})
			}
		})
	}
	n := float64(len(qs))
	var parse, format, estimate, get, encode float64
	for _, p := range probes {
		parse += p.parseNs
		format += p.formatNs
		estimate += p.estimateNs
		get += p.cacheGetNs
		for _, mode := range lr.cfg.wl.modes {
			if mode == deliverNDJSON {
				encode += p.encodeNDJSONNs / float64(len(lr.cfg.wl.modes))
			} else {
				encode += p.encodeJSONNs / float64(len(lr.cfg.wl.modes))
			}
		}
	}
	m.set("qlang.parse_us", parse/n/1e3, len(qs))
	m.set("qlang.format_us", format/n/1e3, len(qs))
	m.set("card.estimate_us", estimate/n/1e3, len(qs))
	m.set("qcache.get_us", get/n/1e3, len(qs))
	m.set("catalog.acquire_us", acquireNs/1e3, 200)
	m.set("server.encode_ms", encode/n/1e6, len(qs))
	m.set("gtea.eval_ms", evalMS/n, len(qs))
	m.set("gtea.prune_ms", pruneMS/n, len(qs))
	m.set("gtea.enum_ms", enumMS/n, len(qs))
	m.set("gtea.allocs_per_query", allocs/n, len(qs))
	m.set("gtea.ttfr_ms", ttfrMS/n, len(qs))
	m.set("gtea.cursor_rows_per_s", cursorRows/math.Max(1e-9, cursorSec), int(cursorRows))
	// Sharded datasets only: scatter-gather against one flat engine over
	// the same graph, and the merged cursor's drain rate.
	vsFlat, mergeRate := 0.0, 0.0
	if ds.Sharded {
		vsFlat = sharedSharded / math.Max(1e-9, sharedFlat)
		mergeRate = cursorRows / math.Max(1e-9, cursorSec)
	}
	m.set("shard.vs_flat_ratio", vsFlat, len(qs))
	m.set("shard.merge_rows_per_s", mergeRate, int(cursorRows))
	return probes, nil
}

func columnNames(q *core.Query, ans *core.Answer) []string {
	cols := make([]string, len(ans.Out))
	for i, u := range ans.Out {
		cols[i] = q.Nodes[u].Name
	}
	return cols
}

// storageProbes price the layers below the engine on this workload's
// graph: the reachability index, the snapshot codec, the delta log and
// overlay, and the catalog's apply and compact on a scratch copy.
func (lr *layerRun) storageProbes() error {
	m := lr.res.Metrics
	g, h := lr.in.g, lr.in.ref.H
	r := rand.New(rand.NewSource(lr.cfg.seed + 2))
	dir := filepath.Join(lr.cfg.workDir, "scratch")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// internal/reach. Probes run for a fixed time, not a fixed count: one
	// costs under a microsecond on XMark and tens of them on arXiv.
	var rst reach.Stats
	probes := 0
	start := time.Now()
	for time.Since(start) < lr.cfg.sc.reachProbeFor {
		for i := 0; i < 256; i++ {
			h.ReachesSt(graph.NodeID(r.Intn(g.N())), graph.NodeID(r.Intn(g.N())), &rst)
		}
		probes += 256
	}
	m.set("reach.probe_ns", float64(time.Since(start).Nanoseconds())/float64(probes), probes)
	set := make([]graph.NodeID, min(1000, g.N()))
	contourNs := timeIt(5, func() {
		for i := range set {
			set[i] = graph.NodeID(r.Intn(g.N()))
		}
		h.PredContour(set, &rst)
		h.SuccContour(set, &rst)
	})
	m.set("reach.contour_build_us", contourNs/2/1e3, 10)
	m.set("reach.index_entries", float64(h.IndexSize()), 0)

	// internal/snapshot.
	snapPath := filepath.Join(dir, datasetName+".snap")
	start = time.Now()
	if err := snapshot.SaveFile(snapPath, g, h); err != nil {
		return err
	}
	m.set("snapshot.save_s", time.Since(start).Seconds(), 1)
	fi, err := os.Stat(snapPath)
	if err != nil {
		return err
	}
	m.set("snapshot.bytes_per_node", float64(fi.Size())/float64(g.N()), 0)
	start = time.Now()
	if _, _, err := snapshot.LoadFile(snapPath); err != nil {
		return err
	}
	m.set("snapshot.load_s", time.Since(start).Seconds(), 1)

	// internal/delta: fsync'd appends, then an overlay over 50 pending
	// batches of the write stream's shape. Their endpoints come from a
	// fixed seed of their own: the log's size depends on them (ids are
	// varint-coded) and must repeat exactly.
	r = rand.New(rand.NewSource(populationSeed))
	batches := make([]delta.Batch, 50)
	for i := range batches {
		leaf := graph.NodeID(g.N() + i)
		batches[i] = delta.Batch{
			Nodes: []delta.NodeAdd{{Label: outsideLabel}},
			Edges: []delta.EdgeAdd{{From: graph.NodeID(r.Intn(g.N())), To: leaf}, {From: graph.NodeID(r.Intn(g.N())), To: leaf}},
		}
	}
	logPath := filepath.Join(dir, "probe.dlog")
	w, err := delta.Create(logPath, delta.BaseOf(g))
	if err != nil {
		return err
	}
	start = time.Now()
	for i := range batches[:20] {
		if err := w.Append(&batches[i]); err != nil {
			w.Close()
			return err
		}
	}
	m.set("delta.append_ms", ms(time.Since(start))/20, 20)
	if err := w.Close(); err != nil {
		return err
	}
	if fi, err = os.Stat(logPath); err != nil {
		return err
	}
	m.set("delta.log_bytes_per_op", float64(fi.Size())/float64(delta.Ops(batches[:20])), 0)
	overlayNs := timeIt(3, func() { delta.NewOverlay(h, g.N(), g.N()+len(batches), batches) })
	m.set("delta.overlay_build_ms", overlayNs/1e6, 3)

	// internal/catalog: revive the scratch snapshot, apply, compact.
	cat, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		return err
	}
	defer cat.Close()
	ds, err := cat.Acquire(datasetName) // revive first: the load is not part of an apply
	if err != nil {
		return err
	}
	ds.Release()
	start = time.Now()
	for i := range batches[:8] {
		ds, err := cat.ApplyDelta(datasetName, batches[i])
		if err != nil {
			return err
		}
		ds.Release()
	}
	m.set("catalog.apply_ms", ms(time.Since(start))/8, 8)
	start = time.Now()
	if ds, err = cat.Compact(datasetName); err != nil {
		return err
	}
	ds.Release()
	m.set("catalog.compact_ms", ms(time.Since(start)), 1)
	m.set("catalog.cold_load_s", lr.sys.coldLoad.Seconds(), 1)
	return nil
}

package main

import (
	"fmt"
	"math"
)

// metricDef names one metric. BENCHMARK.json at the repository root
// carries the same names, units and directions (the harness tests keep
// the two in step) plus each end-to-end metric's regression bound.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// exact marks a count that must repeat bit for bit between runs of one
	// seed; -compare flags any difference.
	exact bool
}

// endToEnd are what BENCHMARK.json bounds. Every workload reports every
// one of them, from the untraced run only. The list holds only what
// repeats from run to run on a shared two-core machine whose speed drifts
// by a quarter and more over minutes: throughput and latency, whatever
// the window and the statistic, do not (results/spread.md), so they are in
// the client.* rows of the per-layer list with the tail latency, time to
// first row, row rate and update latency.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "heap_live_mb", unit: "MiB", better: "lower"},
}

// perLayer are single layers' figures, from the traced run. Layers are
// this repository's packages plus client/http/trace for the harness side.
var perLayer = []metricDef{
	// Harness side.
	{name: "client.qps", unit: "1/s", better: "higher"},
	{name: "client.query_p50_ms", unit: "ms", better: "lower"},
	{name: "client.query_p95_ms", unit: "ms", better: "lower"},
	{name: "client.query_p99_ms", unit: "ms", better: "lower"},
	{name: "client.ttfr_p50_ms", unit: "ms", better: "lower"},
	{name: "client.rows_per_s", unit: "1/s", better: "higher"},
	{name: "client.update_p50_ms", unit: "ms", better: "lower"},
	{name: "client.update_p95_ms", unit: "ms", better: "lower"},
	{name: "client.sched_lag_p95_ms", unit: "ms", better: "lower"},
	{name: "http.transport_ms", unit: "ms", better: "lower"},
	{name: "http.time_share", unit: "ratio", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
	{name: "trace.unattributed_share", unit: "ratio", better: "lower"},
	// internal/repl.
	{name: "route.hop_ms", unit: "ms", better: "lower"},
	{name: "route.retry_share", unit: "ratio", better: "lower"},
	{name: "repl.lag_batches_max", unit: "count", better: "lower"},
	// internal/server.
	{name: "server.handler_ms", unit: "ms", better: "lower"},
	{name: "server.self_ms", unit: "ms", better: "lower"},
	{name: "server.encode_ms", unit: "ms", better: "lower"},
	{name: "server.admit_wait_ms", unit: "ms", better: "lower"},
	{name: "server.shed_share", unit: "ratio", better: "lower"},
	{name: "server.bytes_per_row", unit: "B", better: "lower"},
	{name: "server.stream_heap_peak_mb", unit: "MiB", better: "lower"},
	{name: "server.time_share", unit: "ratio", better: "lower"},
	// internal/qlang, internal/card.
	{name: "qlang.parse_us", unit: "us", better: "lower"},
	{name: "qlang.format_us", unit: "us", better: "lower"},
	{name: "card.estimate_us", unit: "us", better: "lower"},
	// internal/qcache.
	{name: "qcache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "qcache.get_us", unit: "us", better: "lower"},
	{name: "qcache.evictions", unit: "count", better: "lower"},
	{name: "qcache.coalesced", unit: "count", better: "higher"},
	// internal/catalog.
	{name: "catalog.acquire_us", unit: "us", better: "lower"},
	{name: "catalog.cold_load_s", unit: "s", better: "lower"},
	{name: "catalog.apply_ms", unit: "ms", better: "lower"},
	{name: "catalog.compact_ms", unit: "ms", better: "lower"},
	{name: "catalog.compactions", unit: "count", better: "higher"},
	{name: "catalog.compact_stall_ratio", unit: "ratio", better: "lower"},
	// internal/shard.
	{name: "shard.vs_flat_ratio", unit: "ratio", better: "lower"},
	{name: "shard.merge_rows_per_s", unit: "1/s", better: "higher"},
	{name: "shard.slowest_over_mean", unit: "ratio", better: "lower"},
	{name: "shard.time_share", unit: "ratio", better: "lower"},
	// internal/gtea.
	{name: "gtea.time_share", unit: "ratio", better: "lower"},
	{name: "gtea.eval_ms", unit: "ms", better: "lower"},
	{name: "gtea.prune_ms", unit: "ms", better: "lower"},
	{name: "gtea.enum_ms", unit: "ms", better: "lower"},
	{name: "gtea.plan_us", unit: "us", better: "lower"},
	{name: "gtea.candidates_ms", unit: "ms", better: "lower"},
	{name: "gtea.prune_down_ms", unit: "ms", better: "lower"},
	{name: "gtea.prune_up_ms", unit: "ms", better: "lower"},
	{name: "gtea.enumerate_ms", unit: "ms", better: "lower"},
	{name: "gtea.input_per_query", unit: "count", better: "lower", exact: true},
	{name: "gtea.prune_input_per_query", unit: "count", better: "lower", exact: true},
	{name: "gtea.enum_input_per_query", unit: "count", better: "lower", exact: true},
	{name: "gtea.intermediate_per_query", unit: "count", better: "lower", exact: true},
	{name: "gtea.results_per_query", unit: "count", better: "higher", exact: true},
	{name: "gtea.input_per_result", unit: "ratio", better: "lower", exact: true},
	{name: "gtea.multiway_share", unit: "ratio", better: "higher", exact: true},
	{name: "gtea.plan_misestimate", unit: "ratio", better: "lower", exact: true},
	{name: "gtea.ttfr_ms", unit: "ms", better: "lower"},
	{name: "gtea.cursor_rows_per_s", unit: "1/s", better: "higher"},
	{name: "gtea.allocs_per_query", unit: "count", better: "lower"},
	// internal/reach.
	{name: "reach.lookups_per_query", unit: "count", better: "lower", exact: true},
	{name: "reach.probe_ns", unit: "ns", better: "lower"},
	{name: "reach.contour_build_us", unit: "us", better: "lower"},
	{name: "reach.index_entries", unit: "count", better: "lower", exact: true},
	// internal/delta.
	{name: "delta.append_ms", unit: "ms", better: "lower"},
	{name: "delta.overlay_build_ms", unit: "ms", better: "lower"},
	{name: "delta.pending_read_ratio", unit: "ratio", better: "lower"},
	{name: "delta.log_bytes_per_op", unit: "B", better: "lower", exact: true},
	// internal/snapshot.
	{name: "snapshot.save_s", unit: "s", better: "lower"},
	{name: "snapshot.load_s", unit: "s", better: "lower"},
	{name: "snapshot.bytes_per_node", unit: "B", better: "lower", exact: true},
	// internal/sub.
	{name: "sub.notify_p50_ms", unit: "ms", better: "lower"},
	{name: "sub.skip_share", unit: "ratio", better: "higher"},
	{name: "sub.restricted_share", unit: "ratio", better: "higher"},
	{name: "sub.full_share", unit: "ratio", better: "lower"},
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the figure rests on (0 when the
	// figure is a single reading). It appears in result files only.
	Samples int `json:"samples,omitempty"`
}

// metricSet collects one run's figures and refuses names or values the
// tables above do not allow.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]metricValue{}}
}

func (m *metricSet) set(name string, v float64, samples int) {
	for _, d := range m.defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			m.values[name] = metricValue{Value: v, Unit: d.unit, Samples: samples}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the table") // a harness bug
}

// complete checks that every metric of the table was set.
func (m *metricSet) complete() error {
	for _, d := range m.defs {
		if _, ok := m.values[d.name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	return nil
}

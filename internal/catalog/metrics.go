package catalog

import (
	"sort"
	"strconv"

	"gtpq/internal/delta"
	"gtpq/internal/obs"
	"gtpq/internal/shard"
)

// Register exposes the catalog's serving state on reg: load/reload
// counters, per-dataset generation and delta-overlay gauges, per-dlog
// compaction counts, and per-shard fan-out counters for sharded
// datasets. Everything is func-backed — the callbacks walk the loaded
// entries under the catalog lock at scrape time, never touching disk
// and never blocking on an in-flight load (entries whose ready channel
// is still open are skipped).
func (c *Catalog) Register(reg *obs.Registry) {
	reg.CounterFunc("gtpq_catalog_loads_total", "Dataset loads (builds, snapshot revivals, shard-dir loads).",
		func() float64 { return float64(c.loads.Load()) })
	reg.CounterFunc("gtpq_catalog_reloads_total", "Hot reloads: entries marked stale by source changes or explicit Reload.",
		func() float64 { return float64(c.reloads.Load()) })
	reg.CollectFunc("gtpq_dataset_generation", "Hot-reload generation of each loaded dataset (result-cache keys carry it).",
		obs.TypeGauge, []string{"dataset"}, func() []obs.Sample {
			return c.collectEntries(func(name string, e *entry, out *[]obs.Sample) {
				*out = append(*out, obs.Sample{Labels: []string{name}, Value: float64(e.gen)})
			})
		})
	reg.CollectFunc("gtpq_delta_pending_ops", "Pending delta mutations layered over each loaded dataset's frozen base.",
		obs.TypeGauge, []string{"dataset"}, func() []obs.Sample {
			return c.collectEntries(func(name string, e *entry, out *[]obs.Sample) {
				*out = append(*out, obs.Sample{Labels: []string{name}, Value: float64(delta.Ops(e.batches))})
			})
		})
	reg.CollectFunc("gtpq_delta_batches", "Pending delta batches per loaded dataset.",
		obs.TypeGauge, []string{"dataset"}, func() []obs.Sample {
			return c.collectEntries(func(name string, e *entry, out *[]obs.Sample) {
				*out = append(*out, obs.Sample{Labels: []string{name}, Value: float64(len(e.batches))})
			})
		})
	reg.CollectFunc("gtpq_dataset_compactions_total", "Delta-log folds per dataset this process performed.",
		obs.TypeCounter, []string{"dataset"}, func() []obs.Sample {
			c.mu.Lock()
			defer c.mu.Unlock()
			names := make([]string, 0, len(c.dlogs))
			for name := range c.dlogs {
				names = append(names, name)
			}
			sort.Strings(names)
			out := make([]obs.Sample, 0, len(names))
			for _, name := range names {
				out = append(out, obs.Sample{Labels: []string{name}, Value: float64(c.dlogs[name].compactions.Load())})
			}
			return out
		})
	reg.CollectFunc("gtpq_shard_evals_total", "Evaluations dispatched per shard of each loaded sharded dataset.",
		obs.TypeCounter, []string{"dataset", "shard"}, func() []obs.Sample {
			return c.collectShards(func(st shard.ShardStat) float64 { return float64(st.Evals) })
		})
	reg.CollectFunc("gtpq_shard_eval_seconds_total", "Summed per-shard evaluation wall time of each loaded sharded dataset.",
		obs.TypeCounter, []string{"dataset", "shard"}, func() []obs.Sample {
			return c.collectShards(func(st shard.ShardStat) float64 { return st.EvalTime.Seconds() })
		})
}

// collectEntries runs fn over every loaded, non-stale entry (sorted by
// name) under the catalog lock.
func (c *Catalog) collectEntries(fn func(name string, e *entry, out *[]obs.Sample)) []obs.Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.entries))
	for name := range c.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []obs.Sample
	for _, name := range names {
		e := c.entries[name]
		if e == nil || e.stale {
			continue
		}
		select {
		case <-e.ready:
			if e.err == nil {
				fn(name, e, &out)
			}
		default: // load in flight: skip, never block a scrape
		}
	}
	return out
}

// collectShards emits one sample per shard of every loaded dataset
// whose base has K > 1 shards, labeled (dataset, shard index). The
// counters belong to the base, so they persist while deltas are
// pending.
func (c *Catalog) collectShards(read func(shard.ShardStat) float64) []obs.Sample {
	return c.collectEntries(func(name string, e *entry, out *[]obs.Sample) {
		if !e.ds.Sharded {
			return
		}
		for i, st := range e.base.ShardStats() {
			*out = append(*out, obs.Sample{
				Labels: []string{name, strconv.Itoa(i)},
				Value:  read(st),
			})
		}
	})
}

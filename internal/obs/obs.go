// Package obs is the serving stack's observability substrate: a
// dependency-free metrics core (atomic counters, gauges, fixed-bucket
// latency histograms) with a Prometheus-compatible text exposition, a
// per-query trace facility (span trees threaded through context), and
// a bounded slow-query ring log.
//
// A Registry holds metric families get-or-create style: registering
// the same name twice returns the existing family, so packages can
// bind their counters lazily without coordinating initialization
// order. Families are either static (Counter/Gauge/Histogram children
// created per label-value tuple) or func-backed (a collector callback
// emits samples at scrape time — the shape for dynamic label sets
// like per-dataset or per-shard metrics owned by another package's
// internal state).
//
// Everything is safe for concurrent use. The hot path — Counter.Add,
// Gauge.Set, Histogram.Observe — is lock-free; locks guard only
// registration and scraping.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType is the exposition TYPE of a family.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must not be negative (counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Sample is one sample emitted by a func-backed family: the label
// values (matching the family's label names) and the value.
type Sample struct {
	Labels []string
	Value  float64
}

// family is one named metric family.
type family struct {
	name   string
	help   string
	typ    MetricType
	labels []string  // label names; nil for a scalar family
	bounds []float64 // histogram bucket upper bounds

	mu       sync.Mutex
	children map[string]any // joined label values -> *Counter | *Gauge | *Histogram
	order    []string       // registration order of children keys
	collect  func() []Sample
}

// Registry holds metric families and renders them for scraping.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// validName matches the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// lookup returns (creating if needed) the family, panicking on a
// name/type/label-arity conflict — a conflict is a programming error
// and would silently corrupt the exposition.
func (r *Registry) lookup(name, help string, typ MetricType, labels []string, bounds []float64) *family {
	if !validName(name) {
		panic("obs: invalid metric name " + name)
	}
	for _, l := range labels {
		if !validName(l) || l == "le" {
			panic("obs: invalid label name " + l + " on " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.byName[name]; f != nil {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic("obs: conflicting registration of " + name)
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:   append([]string(nil), labels...),
		bounds:   bounds,
		children: map[string]any{},
	}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// labelKey joins label values with a separator that cannot appear in
// a validated name and is vanishingly unlikely in a value.
const labelSep = "\x00"

func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic("obs: " + f.name + ": wrong label value count")
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = make()
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// Counter returns the scalar counter with the given name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, TypeCounter, nil, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the scalar gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, TypeGauge, nil, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the scalar histogram with the given name. bounds
// are the ascending bucket upper bounds (+Inf is implicit); they must
// match any earlier registration of the same name.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.lookup(name, help, TypeHistogram, nil, checkBounds(bounds))
	return f.child(nil, func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the child counter for the label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// CounterVec returns the labeled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, TypeCounter, labels, nil)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the child histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

// HistogramVec returns the labeled histogram family with the given
// name and bucket bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.lookup(name, help, TypeHistogram, labels, checkBounds(bounds))}
}

// CollectFunc registers a func-backed family: collect is called at
// scrape time and returns the family's samples (label values matching
// labels, plus the value). The callback must be safe for concurrent
// use and should read only cheap in-memory state — it runs on every
// scrape. Registering an existing func-backed name replaces its
// callback (last writer wins; the shape a re-created server needs).
func (r *Registry) CollectFunc(name, help string, typ MetricType, labels []string, collect func() []Sample) {
	if typ == TypeHistogram {
		panic("obs: func-backed histograms are not supported")
	}
	f := r.lookup(name, help, typ, labels, nil)
	f.mu.Lock()
	f.collect = collect
	f.mu.Unlock()
}

// GaugeFunc registers a scalar gauge whose value is read at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.CollectFunc(name, help, TypeGauge, nil, func() []Sample {
		return []Sample{{Value: f()}}
	})
}

// CounterFunc registers a scalar counter whose value is read at
// scrape time (for counters owned by another package's atomics).
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.CollectFunc(name, help, TypeCounter, nil, func() []Sample {
		return []Sample{{Value: f()}}
	})
}

func checkBounds(bounds []float64) []float64 {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return bounds
}

// DefLatencyBuckets are the default latency histogram bounds, in
// seconds: 100µs to 10s, roughly 2.5x apart — wide enough for cache
// hits and multi-second enumerations to land in distinct buckets.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// sortedChildKeys returns the child keys in sorted order for
// deterministic exposition.
func (f *family) sortedChildKeys() []string {
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	return keys
}

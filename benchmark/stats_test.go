package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} // unsorted on purpose
	for _, tc := range []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.95, 7},
		{"p50 of ten is the fifth", ten, 0.50, 5},
		{"p95 of ten is the tenth", ten, 0.95, 10},
		{"p90 of ten is the ninth", ten, 0.90, 9},
		{"p100", ten, 1, 10},
		{"tiny p clamps to the first", ten, 0.001, 1},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("%s: percentile = %v, want %v", tc.name, got, tc.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// A read belongs to the window it completed in; failed reads and reads
// still in flight when the last window closed belong to none.
func TestCutWindows(t *testing.T) {
	start := time.Now()
	read := func(startMS, latencyMS int, ok bool) readResult {
		return readResult{
			start:   start.Add(time.Duration(startMS) * time.Millisecond),
			latency: time.Duration(latencyMS) * time.Millisecond, ok: ok,
		}
	}
	reads := []readResult{
		read(0, 100, true), read(100, 300, true), read(400, 500, true), // complete at 100, 400, 900
		read(900, 200, true),       // began in the first window, completed in the second
		read(1100, 400, true),      // completes at 1500
		read(1200, 10, false),      // failed
		read(1900, 200, true),      // in flight when the second window closed
		read(1500, 3600000, false), // a timed-out read far beyond the end
	}
	ws := cutWindows(reads, start, time.Second, 2)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2", len(ws))
	}
	if w := ws[0]; w.n != 3 || w.qps != 3 || w.p50 != 300 {
		t.Errorf("first window = %+v, want 3 reads, 3/s, p50 300 ms", w)
	}
	if w := ws[1]; w.n != 2 || w.qps != 2 || w.p50 != 200 {
		t.Errorf("second window = %+v, want 2 reads, 2/s, p50 200 ms", w)
	}
	if ws := cutWindows(nil, start, time.Second, 3); len(ws) != 3 || ws[1] != (windowStats{}) {
		t.Errorf("no reads must give empty windows, got %+v", ws)
	}
}

// One stalled window and one lucky window must not move the figures.
func TestMedianWindow(t *testing.T) {
	ws := []windowStats{
		{n: 100, qps: 100, p50: 10},
		{n: 10, qps: 10, p50: 100}, // stalled: ten times slower, a tenth of the work
		{n: 104, qps: 104, p50: 9},
		{n: 96, qps: 96, p50: 11},
		{n: 500, qps: 500, p50: 2}, // lucky: a stretch of cheap requests
	}
	if m := medianWindow(ws); m != (windowStats{n: 100, qps: 100, p50: 10}) {
		t.Errorf("median window = %+v, want 100 reads, 100/s, 10 ms", m)
	}
	if one := medianWindow(ws[1:2]); one != ws[1] {
		t.Errorf("a single window must report itself, got %+v", one)
	}
}

func TestMetricSetRefusesUnknownNamesAndNaN(t *testing.T) {
	m := newMetricSet(perLayer)
	m.set("client.qps", math.NaN(), 1)
	if v := m.values["client.qps"]; v.Value != 0 || v.Unit != "1/s" {
		t.Errorf("NaN stored as %+v, want value 0 with the table's unit", v)
	}
	if err := m.complete(); err == nil {
		t.Error("complete() accepted a set with unmeasured metrics")
	}
	defer func() {
		if recover() == nil {
			t.Error("set accepted a name that is not in the table")
		}
	}()
	m.set("no_such_metric", 1, 1)
}

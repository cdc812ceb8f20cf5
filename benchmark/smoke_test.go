package main

import (
	"math"
	"path/filepath"
	"testing"
)

// Every workload's whole code path — set-up, warm-up, both measured
// segments, verification, the write stream, every probe — at a size that
// takes a second, asserting that every metric BENCHMARK.json names comes
// out finite and that no operation fails.
func TestSmokeTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	contract := readBenchmarkJSON(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			res, err := runWorkload(runConfig{
				wl: wl, sc: scales["tiny"], seed: 17, seconds: 0.3, traced: traced,
				workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out"),
				logf: t.Logf,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", wl.name, traced, res.Failed, res.Attempted, res.failures)
			}
			want := contract.EndToEnd
			if traced {
				want = contract.PerLayer
			}
			if len(res.Metrics.values) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", wl.name, traced, len(res.Metrics.values), len(want))
			}
			for _, m := range want {
				name := m["name"].(string)
				v, ok := res.Metrics.values[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s is not emitted", wl.name, traced, name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", wl.name, traced, name, v.Value)
				case v.Unit != m["unit"]:
					t.Errorf("%s traced=%v: %s in %q, BENCHMARK.json says %q", wl.name, traced, name, v.Unit, m["unit"])
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.name, name, v.Value)
				}
			}
		}
	}
}

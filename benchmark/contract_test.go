package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON is the whole of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []map[string]interface{} `json:"end_to_end"`
	PerLayer []map[string]interface{} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the harness's own tables must name the same
// workloads and metrics, with the same units and directions, within the
// limits the benchmark contract sets.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the harness has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q breaks the naming limits", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, got []map[string]interface{}, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m["name"] != d.name || m["unit"] != d.unit || m["better"] != d.better {
				t.Errorf("%s metric %d is %v, the harness has %+v", kind, i, m, d)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s metric %q (%q) breaks the naming limits", kind, d.name, d.unit)
			}
			seen[d.name] = true
			bound, has := m["bound"].(float64)
			if has != bounded || len(m) != map[bool]int{true: 4, false: 3}[bounded] {
				t.Errorf("%s metric %q has keys %v", kind, d.name, m)
			}
			if bounded && (bound <= 0 || bound > 0.25) {
				t.Errorf("%s metric %q has bound %v, want (0, 0.25]", kind, d.name, bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(b.PerLayer) > 128 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits", len(b.EndToEnd), len(b.PerLayer))
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}
}

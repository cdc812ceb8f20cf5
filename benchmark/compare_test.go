package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", []float64{10, 10.1, 9.9}, []float64{10, 10.2, 10}, "lower", 0.1, "ok"},
		{"slower within the bound", []float64{10, 10, 10}, []float64{10.8, 10.9, 10.8}, "lower", 0.1, "ok"},
		{"slower beyond the bound", []float64{10, 10, 10}, []float64{11.5, 11.6, 11.5}, "lower", 0.1, "worse"},
		{"faster is never worse", []float64{10, 10, 10}, []float64{5, 5, 5}, "lower", 0.1, "ok"},
		{"throughput down beyond the bound", []float64{100, 101, 100}, []float64{80, 81, 80}, "higher", 0.1, "worse"},
		{"throughput up", []float64{100, 101, 100}, []float64{150, 151, 150}, "higher", 0.1, "ok"},
		// The runs of one side disagree by more than the bound: a change
		// of that size cannot be told from noise.
		{"spread wider than the bound", []float64{10, 12, 8}, []float64{10, 10, 10}, "lower", 0.1, "unresolved"},
		{"one run a side resolves nothing", []float64{10}, []float64{10.5}, "lower", 0.1, "unresolved"},
		{"not even a change beyond the bound", []float64{10}, []float64{15}, "lower", 0.1, "unresolved"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// spread must give what Python's statistics.quantiles(xs, n=4) gives.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{10}, 0},
		{[]float64{8, 12, 10}, 0.4},                           // quartiles 8 and 12
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5 / 5.5}, // quartiles 2.75 and 8.25
		{[]float64{4, 2, 1, 3}, 2.5 / 2.5},                    // quartiles 1.25 and 3.75
	} {
		if got := spread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func writeResult(t *testing.T, dir, name string, e2e, layer map[string]float64) string {
	t.Helper()
	wr := &workloadResult{EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
	for k, v := range e2e {
		wr.EndToEnd[k] = metricValue{Value: v}
	}
	for k, v := range layer {
		wr.PerLayer[k] = metricValue{Value: v}
	}
	blob, err := json.Marshal(resultFile{Workloads: map[string]*workloadResult{"w": wr}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	a1 := writeResult(t, dir, "a1.json", map[string]float64{"heap_live_mb": 100, "setup_s": 1.0}, map[string]float64{"gtea.input_per_query": 500, "gtea.eval_ms": 3})
	a2 := writeResult(t, dir, "a2.json", map[string]float64{"heap_live_mb": 101, "setup_s": 1.01}, map[string]float64{"gtea.input_per_query": 500, "gtea.eval_ms": 3.1})
	b1 := writeResult(t, dir, "b1.json", map[string]float64{"heap_live_mb": 101, "setup_s": 1.4}, map[string]float64{"gtea.input_per_query": 501, "gtea.eval_ms": 4})
	b2 := writeResult(t, dir, "b2.json", map[string]float64{"heap_live_mb": 100, "setup_s": 1.41}, map[string]float64{"gtea.input_per_query": 501, "gtea.eval_ms": 4})

	var out bytes.Buffer
	worse, err := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), a1+","+a2, b1+","+b2)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a 40% longer set-up was not reported as worse")
	}
	report := out.String()
	for _, want := range []string{"setup_s", "worse", "gtea.input_per_query", "EXACT COUNT DIFFERS", "gtea.eval_ms"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "heap_live_mb") && !strings.HasSuffix(line, "ok") {
			t.Errorf("heap_live_mb moved by 1%% and is judged: %s", line)
		}
		if strings.HasPrefix(line, "gtea.eval_ms") && strings.Contains(line, "DIFFERS") {
			t.Errorf("a timing was flagged as an exact count: %s", line)
		}
	}

	out.Reset()
	if worse, err = compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), a1+","+a2, a2+","+a1); err != nil || worse {
		t.Errorf("a set compared with itself: worse=%v err=%v\n%s", worse, err, out.String())
	}
}

package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig keeps unit-test runs fast.
func tinyConfig() Config {
	return Config{
		PersonsPerUnit:  60,
		Scales:          []float64{0.5, 1},
		QueriesPerPoint: 2,
		ArxivPerSize:    1,
		Seed:            5,
	}
}

// TestAllExperimentsProduceOutput runs every experiment of the table
// BenchmarkPaper selects from and checks each printed its section.
func TestAllExperimentsProduceOutput(t *testing.T) {
	var buf bytes.Buffer
	r := NewRunner(tinyConfig(), &buf)
	r.All()
	out := buf.String()
	sections := map[string]int{}
	for _, e := range Experiments {
		sections[e.Section]++
	}
	for want, n := range sections {
		if got := strings.Count(out, "== "+want); got != n {
			t.Errorf("output has %d %q sections, want %d", got, want, n)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Error("output contains NaN")
	}
}

func TestTable1RowsMatchScales(t *testing.T) {
	var buf bytes.Buffer
	r := NewRunner(tinyConfig(), &buf)
	r.Table1()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header x2 + one row per scale
	if len(lines) != 2+len(r.Cfg.Scales) {
		t.Errorf("Table1 has %d lines, want %d", len(lines), 2+len(r.Cfg.Scales))
	}
}

func TestCachesReused(t *testing.T) {
	var buf bytes.Buffer
	r := NewRunner(tinyConfig(), &buf)
	g1, _ := r.XMark(1)
	g2, _ := r.XMark(1)
	if g1 != g2 {
		t.Error("XMark graph not cached")
	}
	if r.GTEA(g1) != r.GTEA(g2) {
		t.Error("GTEA engine not cached")
	}
	a1, _ := r.Arxiv()
	a2, _ := r.Arxiv()
	if a1 != a2 {
		t.Error("arXiv graph not cached")
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// contractFile is the part of BENCHMARK.json -compare needs.
type contractFile struct {
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) (*contractFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contractFile
	if err := json.Unmarshal(blob, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// readResultSet loads a comma-separated list of result files.
func readResultSet(list string) ([]resultFile, error) {
	var out []resultFile
	for _, path := range strings.Split(list, ",") {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(blob, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, f)
	}
	return out, nil
}

// values collects one metric's readings over a set's files.
func values(set []resultFile, workload, name string, perLayer bool) []float64 {
	var out []float64
	for _, f := range set {
		wr := f.Workloads[workload]
		if wr == nil {
			continue
		}
		ms := wr.EndToEnd
		if perLayer {
			ms = wr.PerLayer
		}
		if v, ok := ms[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the distance between a set's first and third quartile as a
// share of its median — the quartiles Python's statistics.quantiles(xs,
// n=4) gives, which is what the benchmark's acceptance check uses. It is
// defined for two runs or more; verdict does not ask for fewer.
func spread(xs []float64) float64 {
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		// The "exclusive" method: position k*(n+1)/4, 1-based, clamped.
		pos := float64(k) * float64(len(s)+1) / 4
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (quartile(3) - quartile(1)) / math.Abs(median(xs))
}

// verdict judges one end-to-end metric: how much worse b's median is
// than a's as a share of a's, against the metric's bound. When either
// side's own runs differ by more than the bound, the comparison cannot
// resolve a change of that size and says so instead of "ok" or "worse".
// One run a side says nothing about how far runs differ, so it resolves
// nothing either.
func verdict(a, b []float64, better string, bound float64) (delta float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	delta = (mb - ma) / math.Abs(ma)
	worse := delta
	if better == "higher" {
		worse = -delta
	}
	switch {
	case len(a) < 2 || len(b) < 2 || math.Max(spread(a), spread(b)) > bound:
		return delta, "unresolved"
	case worse > bound:
		return delta, "worse"
	}
	return delta, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative change, the bound and a verdict; per-layer metrics are
// listed without a verdict, except that an exact count that differs at
// all is flagged. It reports whether any verdict was "worse".
func compareFiles(w io.Writer, contractPath, listA, listB string) (anyWorse bool, err error) {
	contract, err := readContract(contractPath)
	if err != nil {
		return false, err
	}
	a, err := readResultSet(listA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(listB)
	if err != nil {
		return false, err
	}
	exact := map[string]bool{}
	for _, d := range perLayer {
		exact[d.name] = d.exact
	}
	names := map[string]bool{}
	for _, set := range [][]resultFile{a, b} {
		for _, f := range set {
			for name := range f.Workloads {
				names[name] = true
			}
		}
	}
	var order []string
	for name := range names {
		order = append(order, name)
	}
	sort.Strings(order)

	for _, wl := range order {
		fmt.Fprintf(w, "== %s (%d vs %d runs)\n", wl, len(a), len(b))
		fmt.Fprintf(w, "%-30s %-6s %14s %14s %9s %7s  %s\n", "end-to-end", "unit", "a median", "b median", "change", "bound", "verdict")
		for _, cm := range contract.EndToEnd {
			va, vb := values(a, wl, cm.Name, false), values(b, wl, cm.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			delta, v := verdict(va, vb, cm.Better, cm.Bound)
			if v == "worse" {
				anyWorse = true
			}
			fmt.Fprintf(w, "%-30s %-6s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				cm.Name, cm.Unit, median(va), median(vb), 100*delta, 100*cm.Bound, v)
		}
		fmt.Fprintf(w, "%-30s %-6s %14s %14s %9s\n", "per-layer", "unit", "a median", "b median", "change")
		for _, cm := range contract.PerLayer {
			va, vb := values(a, wl, cm.Name, true), values(b, wl, cm.Name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := "      n/a"
			if ma != 0 {
				change = fmt.Sprintf("%+8.1f%%", 100*(mb-ma)/math.Abs(ma))
			}
			flag := ""
			if exact[cm.Name] && !sameValues(va, vb) {
				flag = "  EXACT COUNT DIFFERS"
			}
			fmt.Fprintf(w, "%-30s %-6s %14.4f %14.4f %s%s\n", cm.Name, cm.Unit, ma, mb, change, flag)
		}
	}
	return anyWorse, nil
}

// sameValues reports whether every reading on both sides is one value.
func sameValues(a, b []float64) bool {
	for _, x := range append(append([]float64(nil), a...), b...) {
		if x != a[0] {
			return false
		}
	}
	return true
}

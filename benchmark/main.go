// Command benchmark is the load generator and tracer every speed claim
// about this repository is measured with. It generates each workload's
// dataset and query population, starts the real server (and, for
// fleet_rw, a tailing replica and the router) in-process on loopback,
// drives it over HTTP with traffic drawn from a seed, verifies every
// answer against the paper-order engine and prints every metric by name
// with its unit. See README.md in this directory.
//
// One workload, one trace mode (the form BENCHMARK.json's command runs):
//
//	benchmark --workload xmark_eval --seed 17 --seconds 10 --trace 0
//
// Every workload, untraced then traced, into one result file:
//
//	benchmark -seed 17 -out r.json
//
// Two result files (or comma-separated sets of them) side by side:
//
//	benchmark -compare before.json after.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all of them)")
		seed         = flag.Int64("seed", 17, "seed the traffic derives from: request order, Zipf draws, write stream")
		seconds      = flag.Float64("seconds", 10, "length of the measured run")
		trace        = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
		scaleName    = flag.String("scale", "full", "data size: full or tiny (tiny is for the smoke test)")
		out          = flag.String("out", "", "also write the results to this file")
		compare      = flag.Bool("compare", false, "compare two result files (or comma-separated sets): -compare a.json b.json")
		contract     = flag.String("contract", "BENCHMARK.json", "BENCHMARK.json to take the regression bounds from (with -compare)")
		verbose      = flag.Bool("v", false, "log progress to standard error")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two arguments, each a result file or a comma-separated list of them")
		}
		worse, err := compareFiles(os.Stdout, *contract, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	sc, ok := scales[*scaleName]
	if !ok {
		fatalf("unknown -scale %q (full, tiny)", *scaleName)
	}
	todo := workloads
	if *workloadName != "" {
		wl, ok := findWorkload(*workloadName)
		if !ok {
			fatalf("unknown -workload %q", *workloadName)
		}
		todo = []workload{wl}
	}
	var modes []bool
	switch *trace {
	case 0:
		modes = []bool{false}
	case 1:
		modes = []bool{true}
	case -1:
		modes = []bool{false, true}
	default:
		fatalf("-trace must be 0 or 1")
	}
	logf := func(string, ...interface{}) {}
	if *verbose {
		logf = func(format string, args ...interface{}) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}

	file := resultFile{Meta: newMeta(*seed, *seconds, sc.name), Workloads: map[string]*workloadResult{}}
	var last *runResult
	for _, wl := range todo {
		wr := &workloadResult{}
		file.Workloads[wl.name] = wr
		for _, traced := range modes {
			cfg := runConfig{
				wl: wl, sc: sc, seed: *seed, seconds: *seconds, traced: traced,
				workDir: filepath.Join(".bench_build", fmt.Sprintf("work-%s-%d", wl.name, os.Getpid())),
				outDir:  filepath.Join("benchmark", "out"),
				logf:    logf,
			}
			res, err := runWorkload(cfg)
			if err != nil {
				fatalf("%v", err)
			}
			for _, f := range res.failures {
				fmt.Fprintf(os.Stderr, "%s: failed operation: %s\n", wl.name, f)
			}
			wr.add(res, traced)
			last = res
			if len(todo) > 1 || len(modes) > 1 {
				printMetrics(wl.name, traced, res)
			}
		}
	}
	if *out != "" {
		blob, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	if len(todo) == 1 && len(modes) == 1 {
		printDriverLine(last)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// driverLine is the one JSON object BENCHMARK.json's contract wants as
// the last line of standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDriverLine(res *runResult) {
	line := driverLine{
		Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]driverMetric{},
	}
	for name, v := range res.Metrics.values {
		line.Metrics[name] = driverMetric{Value: v.Value, Unit: v.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(blob))
}

// printMetrics lists one run's figures by name, with unit and sample
// count.
func printMetrics(workload string, traced bool, res *runResult) {
	kind := "end-to-end (untraced run)"
	if traced {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("== %s: %s; %d operations attempted, %d failed\n", workload, kind, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics.values))
	for name := range res.Metrics.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics.values[name]
		fmt.Printf("%-32s %14.4f %-6s n=%d\n", name, v.Value, v.Unit, v.Samples)
	}
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Meta      meta                       `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type meta struct {
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Scale     string  `json:"scale"`
	GoVersion string  `json:"go_version"`
	NumCPU    int     `json:"nproc"`
	Commit    string  `json:"commit"`
	Time      string  `json:"time"`
}

func newMeta(seed int64, seconds float64, scale string) meta {
	m := meta{
		Seed: seed, Seconds: seconds, Scale: scale,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Commit: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			m.Commit += "+uncommitted"
		}
	}
	return m
}

// workloadResult is one workload's figures: end-to-end from the untraced
// run, per-layer from the traced one.
type workloadResult struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

func (wr *workloadResult) add(res *runResult, traced bool) {
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	if traced {
		wr.PerLayer = res.Metrics.values
	} else {
		wr.EndToEnd = res.Metrics.values
	}
}

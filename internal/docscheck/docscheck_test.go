// Package docscheck keeps docs/OPERATIONS.md honest: it extracts
// every flag the operational binaries define, every gtpq_* metric
// family the code registers and every HTTP route the server mounts,
// and fails if any is missing from the documentation — or if a flag
// table or the endpoint table documents something the code no longer
// defines. It contains only tests — running them (the CI lint job
// does) is the whole point.
package docscheck

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// repoRoot is relative to this package directory, where `go test`
// runs.
const repoRoot = "../.."

// opsBinaries are the binaries whose every flag must be documented.
// gtpq is a development tool with self-describing -help output; the
// operational four are what OPERATIONS.md covers.
var opsBinaries = []string{"gtpq-serve", "gtpq-route", "gtpq-compact", "gtpq-shard"}

var (
	flagRe   = regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Float64|Duration)\(\s*"([^"]+)"`)
	flagRow  = regexp.MustCompile("^\\| `-([^`]+)` \\|")
	metricRe = regexp.MustCompile(`"(gtpq_[a-z_]+)"`)
	routeRe  = regexp.MustCompile(`mux\.HandleFunc\("([A-Z]+) (/[^"]*)"`)
	routeRow = regexp.MustCompile("^\\| `(/[^`]*)` \\| ([A-Z]+) \\|")
)

func readOperations(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot, "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatalf("read docs/OPERATIONS.md: %v", err)
	}
	return string(b)
}

// TestOperationsCoversFlags extracts every flag definition from the
// operational binaries' main.go and requires the flag to appear in
// docs/OPERATIONS.md as `-name` — and, the other way round, requires
// every `-name` row of the flag tables under a binary's "## <binary>"
// heading to be a flag that binary defines, so a deleted flag cannot
// leave a stale row behind.
func TestOperationsCoversFlags(t *testing.T) {
	doc := readOperations(t)
	defined := map[string]map[string]bool{}
	for _, bin := range opsBinaries {
		src, err := os.ReadFile(filepath.Join(repoRoot, "cmd", bin, "main.go"))
		if err != nil {
			t.Fatalf("read cmd/%s/main.go: %v", bin, err)
		}
		matches := flagRe.FindAllStringSubmatch(string(src), -1)
		if len(matches) == 0 {
			t.Fatalf("cmd/%s/main.go: no flag definitions found — extractor regex out of date?", bin)
		}
		defined[bin] = map[string]bool{}
		for _, m := range matches {
			defined[bin][m[1]] = true
			if want := "`-" + m[1] + "`"; !strings.Contains(doc, want) {
				t.Errorf("docs/OPERATIONS.md: flag %s of %s is undocumented", want, bin)
			}
		}
	}
	rows, section := 0, ""
	for _, line := range strings.Split(doc, "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			section = h
		}
		m := flagRow.FindStringSubmatch(line)
		if m == nil || defined[section] == nil {
			continue
		}
		rows++
		if !defined[section][m[1]] {
			t.Errorf("docs/OPERATIONS.md: %s documents flag `-%s`, which cmd/%s/main.go does not define", section, m[1], section)
		}
	}
	if rows < 10 {
		t.Fatalf("found only %d flag-table rows in docs/OPERATIONS.md — row regex out of date?", rows)
	}
}

// TestOperationsCoversMetrics extracts every gtpq_* metric-name
// literal from non-test sources under internal/ (excluding
// internal/bench, whose literals parse exposition output rather than
// register families) and requires it to appear in
// docs/OPERATIONS.md.
func TestOperationsCoversMetrics(t *testing.T) {
	doc := readOperations(t)
	names := map[string][]string{}
	root := filepath.Join(repoRoot, "internal")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "bench" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(repoRoot, path)
		for _, m := range metricRe.FindAllStringSubmatch(string(src), -1) {
			names[m[1]] = append(names[m[1]], rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 10 {
		t.Fatalf("found only %d gtpq_* metric literals under internal/ — extractor regex out of date?", len(names))
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		if !strings.Contains(doc, n) {
			t.Errorf("docs/OPERATIONS.md: metric %s (registered in %s) is undocumented", n, names[n][0])
		}
	}
}

// TestOperationsCoversEndpoints requires every route internal/server
// mounts (`mux.HandleFunc("METHOD /path", …)`) to be a row of the
// OPERATIONS.md "HTTP endpoints" table, and every row of that table to
// name a mounted route — a removed endpoint cannot leave a stale row.
// gtpq-route's routes are covered by the prose line under the table.
func TestOperationsCoversEndpoints(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(repoRoot, "internal", "server", "server.go"))
	if err != nil {
		t.Fatal(err)
	}
	mounted := map[string]bool{}
	for _, m := range routeRe.FindAllStringSubmatch(string(src), -1) {
		mounted[m[1]+" "+m[2]] = true
	}
	if len(mounted) < 5 {
		t.Fatalf("found only %d routes in internal/server/server.go — extractor regex out of date?", len(mounted))
	}
	documented, section := map[string]bool{}, ""
	for _, line := range strings.Split(readOperations(t), "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			section = h
		}
		if m := routeRow.FindStringSubmatch(line); m != nil && section == "HTTP endpoints" {
			documented[m[2]+" "+m[1]] = true
		}
	}
	for r := range mounted {
		if !documented[r] {
			t.Errorf("docs/OPERATIONS.md: route %s is not in the HTTP endpoints table", r)
		}
	}
	for r := range documented {
		if !mounted[r] {
			t.Errorf("docs/OPERATIONS.md: HTTP endpoints table documents %s, which internal/server does not mount", r)
		}
	}
}

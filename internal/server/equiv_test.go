package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/core"
	"gtpq/internal/gen"
	"gtpq/internal/graph"
	"gtpq/internal/graphio"
	"gtpq/internal/qlang"
	"gtpq/internal/shard"
)

// formatGenQuery renders a generated query as qlang text. gen.Query
// reuses node names, and the DSL needs them unique, so they are
// rewritten by id first.
func formatGenQuery(q *core.Query) string {
	for i, n := range q.Nodes {
		n.Name = fmt.Sprintf("n%d", i)
	}
	return qlang.Format(q)
}

func saveFlat(t *testing.T, dir, name string, g *graph.Graph) {
	t.Helper()
	var buf bytes.Buffer
	if err := graphio.Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheEquivalence is the acceptance property: over randomized
// graph/query workloads, answers served with the result cache enabled
// are byte-identical to cache-disabled runs — across both reachability
// backends, flat and sharded datasets, repeated (warm) requests, and a
// hot-reload generation bump in the middle.
func TestCacheEquivalence(t *testing.T) {
	labels := []string{"a", "b", "c"}
	for _, kind := range []string{"threehop", "tc"} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", kind, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				g := gen.Forest(r, 4, 40, 90, labels)

				dir := t.TempDir()
				saveFlat(t, dir, "flat.json", g)
				plan, err := shard.Partition(g, 3, shard.ModeWCC)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := shard.WriteDir(filepath.Join(dir, "parted"), "parted", g, plan, shard.Options{Index: kind}); err != nil {
					t.Fatal(err)
				}

				// Two independent servers over the same directory: one
				// cached, one not. Separate catalogs so each manages its
				// own loads and generations.
				newSrv := func(cacheBytes int64) *httptest.Server {
					cat, err := catalog.Open(dir, catalog.Options{Index: kind})
					if err != nil {
						t.Fatal(err)
					}
					ts := httptest.NewServer(New(cat, Config{CacheBytes: cacheBytes}).Handler())
					t.Cleanup(ts.Close)
					return ts
				}
				cached := newSrv(8 << 20)
				uncached := newSrv(0)

				queries := make([]string, 0, 6)
				for len(queries) < 6 {
					q := gen.Query(r, 2+r.Intn(4), labels, true, true)
					queries = append(queries, formatGenQuery(q))
				}

				check := func(phase string) {
					for _, dataset := range []string{"flat", "parted"} {
						for qi, src := range queries {
							body := map[string]interface{}{"dataset": dataset, "query": src, "timeout_ms": 30000}
							codeU, outU := postQuery(t, uncached.URL, body)
							if codeU != http.StatusOK {
								t.Fatalf("%s: uncached %s q%d: status %d: %v", phase, dataset, qi, codeU, outU)
							}
							want, _ := json.Marshal(outU["rows"])
							// Twice against the cached server: a cold miss,
							// then a warm hit — both must match the
							// uncached answer byte for byte.
							for round := 0; round < 2; round++ {
								codeC, outC := postQuery(t, cached.URL, body)
								if codeC != http.StatusOK {
									t.Fatalf("%s: cached %s q%d round %d: status %d: %v", phase, dataset, qi, round, codeC, outC)
								}
								got, _ := json.Marshal(outC["rows"])
								if !bytes.Equal(want, got) {
									t.Fatalf("%s: %s q%d round %d: cached rows diverged\nquery:\n%s\nwant %s\ngot  %s",
										phase, dataset, qi, round, src, want, got)
								}
							}
						}
					}
				}
				check("initial")

				// Hot reload: a different graph under the same flat name
				// must flip both servers to the new answers — the cached
				// server through a fresh generation, not stale entries.
				g2 := gen.Forest(rand.New(rand.NewSource(seed+100)), 4, 40, 90, labels)
				saveFlat(t, dir, "flat.json", g2)
				future := time.Now().Add(2 * time.Second)
				if err := os.Chtimes(filepath.Join(dir, "flat.json"), future, future); err != nil {
					t.Fatal(err)
				}
				for _, dataset := range []string{"flat"} {
					for qi, src := range queries {
						body := map[string]interface{}{"dataset": dataset, "query": src, "timeout_ms": 30000}
						_, outU := postQuery(t, uncached.URL, body)
						want, _ := json.Marshal(outU["rows"])
						for round := 0; round < 2; round++ {
							_, outC := postQuery(t, cached.URL, body)
							got, _ := json.Marshal(outC["rows"])
							if !bytes.Equal(want, got) {
								t.Fatalf("post-reload: %s q%d round %d diverged\nwant %s\ngot  %s", dataset, qi, round, want, got)
							}
						}
					}
				}
			})
		}
	}
}

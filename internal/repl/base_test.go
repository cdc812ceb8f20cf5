package repl_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gtpq/internal/graphio"
	"gtpq/internal/repl"
	"gtpq/internal/shard"
)

// xmarkQueries are compared on the XMark fixture; the second one
// traverses.
var xmarkQueries = []string{
	"node x label=open_auction output",
	"node x label=open_auction output\nnode y label=bidder parent=x edge=ad output",
}

// Every stored form of a base ships as the bytes the primary holds:
// GET /repl/base answers exactly the stored root file and names it,
// and a replica bootstraps to the same file and answers like the
// primary. A version-1 .snap stays version 1, a raw JSON graph is
// indexed by the replica itself, and a one-shard directory stays a
// directory.
func TestBaseShipsAsStored(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", "v1-xmark50-threehop.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		root    string // the stored root file, relative to the catalog directory
		write   func(t *testing.T, dir string)
		queries []string
	}{
		{"v1 snapshot", "d.snap", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "d.snap"), v1, 0o644); err != nil {
				t.Fatal(err)
			}
		}, xmarkQueries},
		{"raw JSON", "d.json", func(t *testing.T, dir string) {
			var buf bytes.Buffer
			if err := graphio.Save(&buf, buildGraph()); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "d.json"), buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}, equivQueries},
		{"one-shard directory", filepath.Join("d", shard.ManifestName), func(t *testing.T, dir string) {
			g := buildGraph()
			plan, err := shard.Partition(g, 1, shard.ModeWCC)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := shard.WriteDir(filepath.Join(dir, "d"), "d", g, plan, shard.Options{}); err != nil {
				t.Fatal(err)
			}
		}, equivQueries},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.write(t, dir)
			stored, err := os.ReadFile(filepath.Join(dir, tc.root))
			if err != nil {
				t.Fatal(err)
			}
			primary, _ := servePrimary(t, dir)

			resp, err := http.Get(primary.URL + "/repl/base?dataset=d")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, stored) {
				t.Fatalf("/repl/base: status %d, %d bytes; want the %d stored bytes", resp.StatusCode, len(body), len(stored))
			}
			if got := resp.Header.Get(repl.HeaderFile); got != filepath.Base(tc.root) {
				t.Fatalf("%s = %q, want %q", repl.HeaderFile, got, filepath.Base(tc.root))
			}

			rep := newReplica(t, &repl.HTTPClient{BaseURL: primary.URL}, repl.TailerConfig{Datasets: []string{"d"}})
			rep.waitSync(t)
			if installed, err := os.ReadFile(filepath.Join(rep.dir, tc.root)); err != nil || !bytes.Equal(installed, stored) {
				t.Fatalf("replica stores %d bytes at %s (%v); want the primary's %d", len(installed), tc.root, err, len(stored))
			}
			assertSameAnswers(t, primary.URL, rep.srv.URL, tc.queries)
			if rows := canonicalRows(t, rep.srv.URL, tc.queries[1]); strings.Contains(rows, `"r":null`) {
				t.Fatalf("the replica answers %s with no rows", tc.queries[1])
			}
		})
	}
}

// rootRenamer passes through to a real client but, while root is set,
// names that file as the root of every base it fetches.
type rootRenamer struct {
	repl.Client
	root atomic.Pointer[string]
}

func (c *rootRenamer) FetchBase(ctx context.Context, dataset, file string) (repl.Chunk, error) {
	ch, err := c.Client.FetchBase(ctx, dataset, file)
	if root := c.root.Load(); err == nil && file == "" && root != nil {
		ch.File = *root
	}
	return ch, err
}

// tree maps every path under dir to its size and modification time.
func tree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out[path] = fmt.Sprintf("%d bytes, %s", info.Size(), info.ModTime())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A shipped root that is not <name>.snap, <name>.json, <name>.json.gz
// or manifest.json is refused before anything is written: the replica's
// files stay as they were, its live base keeps answering, and once the
// primary names its root honestly again the replica heals.
func TestInstallRefusesForeignRoot(t *testing.T) {
	primary, pcat := newPrimary(t, 0)
	postUpdate(t, primary.URL, 8, 4)
	client := &rootRenamer{Client: &repl.HTTPClient{BaseURL: primary.URL}}
	rep := newReplica(t, client, repl.TailerConfig{Datasets: []string{"d"}})
	rep.waitSync(t)
	answers := map[string]string{}
	for _, q := range equivQueries {
		answers[q] = canonicalRows(t, rep.srv.URL, q)
	}
	files := tree(t, rep.dir)

	for i, root := range []string{"../d.snap", ".d.snap", "other.snap", "d.snap/x"} {
		before := rep.errCount("base_install")
		client.root.Store(&root)
		if i == 0 {
			// A compaction on the primary makes the replica re-ship its
			// base, and retry the ship until it installs.
			ds, err := pcat.Compact("d")
			if err != nil {
				t.Fatal(err)
			}
			ds.Release()
		}
		deadline := time.Now().Add(10 * time.Second)
		for rep.errCount("base_install") < before+2 {
			if time.Now().After(deadline) {
				t.Fatalf("root %q: no refused install", root)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	after := tree(t, rep.dir)
	if len(after) != len(files) {
		t.Fatalf("refused installs changed the replica's files: %v -> %v", files, after)
	}
	for path, stamp := range files {
		if after[path] != stamp {
			t.Fatalf("refused installs changed %s", path)
		}
	}
	for _, p := range []string{filepath.Join(filepath.Dir(rep.dir), "d.snap"), filepath.Join(rep.dir, "d.snap")} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("a refused install wrote %s (%v)", p, err)
		}
	}
	for _, q := range equivQueries {
		if got := canonicalRows(t, rep.srv.URL, q); got != answers[q] {
			t.Fatalf("the live base answers %q as %s, before the refusals %s", q, got, answers[q])
		}
	}

	client.root.Store(nil)
	rep.waitSync(t)
	assertEquivalent(t, primary.URL, rep.srv.URL)
	// The primary's compaction wrote d.snap beside d.json; the replica
	// keeps only the form it installed.
	if _, err := os.Stat(filepath.Join(rep.dir, "d.json")); !os.IsNotExist(err) {
		t.Fatalf("d.json survived installing d.snap: %v", err)
	}
}

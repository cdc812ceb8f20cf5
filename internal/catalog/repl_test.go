package catalog

import (
	"bytes"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gtpq/internal/delta"
	"gtpq/internal/gen"
	"gtpq/internal/shard"
	"gtpq/internal/snapshot"
)

// ReadLogChunk must never pair one base's fingerprint with another
// base's log bytes — the torn combination a replica cannot detect.
// Readers hammer the chunk endpoint while a writer applies deltas and
// compacts (which swaps the base and deletes the log); every returned
// (state, bytes) pair must be internally consistent: a non-empty
// chunk from offset 0 opens with a header naming exactly state.Base.
// ReadBase is held to the same rule: the base bytes it returns load as
// exactly state.Base.
func TestReadLogChunkConsistentAcrossCompaction(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := gen.Forest(r, 4, 8, 12, deltaLabels)
	dir := t.TempDir()
	writeFlatDataset(t, dir, "ds", "threehop", g)
	cat, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				data, _, bst, err := cat.ReadBase("ds", "")
				if IsReloadRace(err) {
					continue
				}
				if err != nil {
					t.Errorf("ReadBase: %v", err)
					return
				}
				bg, _, err := snapshot.Load(bytes.NewReader(data))
				if err != nil {
					t.Errorf("ReadBase bytes do not load: %v", err)
					return
				}
				if id := delta.BaseOf(bg); id != bst.Base {
					t.Errorf("torn base read: state base %v, bytes load as %v", bst.Base, id)
					return
				}
				chunk, st, err := cat.ReadLogChunk("ds", 0, 1<<20)
				if IsReloadRace(err) {
					// The bounded retry lost every attempt to back-to-back
					// compactions; retryable by contract (the tailer backs
					// off and refetches), so not a consistency violation.
					continue
				}
				if err != nil {
					t.Errorf("ReadLogChunk: %v", err)
					return
				}
				if int64(len(chunk)) > st.Size {
					t.Errorf("chunk %d bytes exceeds reported size %d", len(chunk), st.Size)
					return
				}
				if len(chunk) == 0 {
					continue
				}
				hdr, err := delta.ParseHeader(chunk)
				if err != nil {
					t.Errorf("chunk opens with a corrupt header: %v", err)
					return
				}
				if hdr != st.Base {
					t.Errorf("torn read: state base %v, log header %v", st.Base, hdr)
					return
				}
			}
		}()
	}

	wr := rand.New(rand.NewSource(12))
	n := g.N()
	for round := 0; round < 6; round++ {
		for i := 0; i < 5; i++ {
			b := randomBatch(wr, n)
			ds, err := cat.ApplyDelta("ds", b)
			if err != nil {
				t.Fatal(err)
			}
			n = ds.Nodes()
			ds.Release()
		}
		ds, err := cat.Compact("ds")
		if err != nil {
			t.Fatal(err)
		}
		ds.Release()
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// ReadBase hands out the base as stored even while deltas land: the
// same bytes before and after a burst of updates, while the log state
// read with them moves. A compaction then ships the folded base.
func TestReadBaseStableUnderDeltas(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	g := gen.Forest(r, 4, 8, 12, deltaLabels)
	dir := t.TempDir()
	writeFlatDataset(t, dir, "ds", "threehop", g)
	stored, err := os.ReadFile(filepath.Join(dir, "ds.snap"))
	if err != nil {
		t.Fatal(err)
	}
	cat, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	data1, root1, st1, err := cat.ReadBase("ds", "")
	if err != nil {
		t.Fatal(err)
	}
	if root1 != "ds.snap" || !bytes.Equal(data1, stored) {
		t.Fatalf("ReadBase: %q, %d bytes; want ds.snap as stored (%d bytes)", root1, len(data1), len(stored))
	}
	wr := rand.New(rand.NewSource(22))
	n := g.N()
	for i := 0; i < 4; i++ {
		ds, err := cat.ApplyDelta("ds", randomBatch(wr, n))
		if err != nil {
			t.Fatal(err)
		}
		n = ds.Nodes()
		ds.Release()
	}
	data2, root2, st2, err := cat.ReadBase("ds", "")
	if err != nil {
		t.Fatal(err)
	}
	if root2 != root1 || !bytes.Equal(data2, data1) {
		t.Fatalf("base bytes moved under deltas: %q, %d bytes", root2, len(data2))
	}
	if st2.Base != st1.Base || st2.Batches != 4 || st2.Size <= st1.Size || st2.Generation <= st1.Generation {
		t.Fatalf("log state %+v after 4 batches over %+v", st2, st1)
	}
	if _, _, _, err := cat.ReadBase("ds", "ds.snap"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a named file of a flat base: %v, want fs.ErrNotExist", err)
	}

	ds, err := cat.Compact("ds")
	if err != nil {
		t.Fatal(err)
	}
	ds.Release()
	data3, root3, st3, err := cat.ReadBase("ds", "")
	if err != nil {
		t.Fatal(err)
	}
	folded, err := os.ReadFile(filepath.Join(dir, "ds.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if root3 != "ds.snap" || !bytes.Equal(data3, folded) || bytes.Equal(data3, data1) {
		t.Fatalf("after compaction: %q, %d bytes; want the folded ds.snap", root3, len(data3))
	}
	if st3.Base == st1.Base || st3.Size != 0 || st3.Batches != 0 {
		t.Fatalf("log state after compaction: %+v", st3)
	}
}

// A sharded base reads as its manifest, then file by file; a name
// that is not a plain file of the directory reads as not existing.
func TestReadBaseShardFiles(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g := gen.Forest(r, 4, 8, 12, deltaLabels)
	dir := t.TempDir()
	writeShardedDataset(t, dir, "ds", "threehop", g)
	cat, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	data, root, _, err := cat.ReadBase("ds", "")
	if err != nil {
		t.Fatal(err)
	}
	if root != shard.ManifestName {
		t.Fatalf("root %q, want %s", root, shard.ManifestName)
	}
	manPath := filepath.Join(dir, "ds", shard.ManifestName)
	man, err := shard.ReadManifest(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if stored, _ := os.ReadFile(manPath); !bytes.Equal(data, stored) {
		t.Fatal("manifest bytes differ from the stored manifest")
	}
	for _, sf := range man.Shards {
		for _, f := range [][2]string{{sf.Snap, sf.SnapSHA256}, {sf.IDs, sf.IDsSHA256}} {
			blob, got, _, err := cat.ReadBase("ds", f[0])
			if err != nil {
				t.Fatal(err)
			}
			if got != f[0] {
				t.Fatalf("ReadBase(%q) names %q", f[0], got)
			}
			if err := shard.VerifySHA256(blob, f[1]); err != nil {
				t.Fatalf("%s: %v", f[0], err)
			}
		}
	}
	for _, bad := range []string{"../ds.snap", ".ds.compact", "ds/manifest.json", "shard-9999.snap"} {
		if _, _, _, err := cat.ReadBase("ds", bad); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("ReadBase(%q): %v, want fs.ErrNotExist", bad, err)
		}
	}
}

// Changed fires at every commit that can move a LogState — an applied
// batch, a compaction fold, a hot reload, Close — and not before.
func TestChangedFiresOnCommit(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := gen.Forest(r, 2, 6, 8, deltaLabels)
	dir := t.TempDir()
	writeFlatDataset(t, dir, "ds", "threehop", g)
	cat, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	ds, err := cat.Acquire("ds")
	if err != nil {
		t.Fatal(err)
	}
	ds.Release()

	fired := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	for _, step := range []struct {
		name   string
		commit func() error
	}{
		{"apply", func() error {
			ds, err := cat.ApplyDelta("ds", randomBatch(r, g.N()))
			if err == nil {
				ds.Release()
			}
			return err
		}},
		{"compact", func() error {
			ds, err := cat.Compact("ds")
			if err == nil {
				ds.Release()
			}
			return err
		}},
		{"reload", func() error { cat.Reload("ds"); return nil }},
		{"close", cat.Close},
	} {
		ch := cat.Changed()
		if _, _, err := cat.ReadLogChunk("ds", 0, 0); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if fired(ch) {
			t.Fatalf("%s: Changed fired before the commit", step.name)
		}
		if err := step.commit(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if !fired(ch) {
			t.Errorf("%s: Changed did not fire", step.name)
		}
	}
}

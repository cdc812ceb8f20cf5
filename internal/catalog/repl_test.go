package catalog

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"gtpq/internal/delta"
	"gtpq/internal/gen"
)

// ReadLogChunk must never pair one base's fingerprint with another
// base's log bytes — the torn combination a replica cannot detect.
// Readers hammer the chunk endpoint while a writer applies deltas and
// compacts (which swaps the base and deletes the log); every returned
// (state, bytes) pair must be internally consistent: a non-empty
// chunk from offset 0 opens with a header naming exactly state.Base.
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

// BaseSnapshot hands out the immutable base even while deltas land:
// two calls around a burst of updates serialize identically (the base
// only moves on compaction).
func TestBaseSnapshotStableUnderDeltas(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	g := gen.Forest(r, 4, 8, 12, deltaLabels)
	dir := t.TempDir()
	writeFlatDataset(t, dir, "ds", "threehop", g)
	cat, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	_, _, st1, err := cat.BaseSnapshot("ds")
	if err != nil {
		t.Fatal(err)
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
	_, _, st2, err := cat.BaseSnapshot("ds")
	if err != nil {
		t.Fatal(err)
	}
	if st1.Base != st2.Base {
		t.Fatalf("base moved under deltas: %v -> %v", st1.Base, st2.Base)
	}
	if st2.Batches != 4 {
		t.Fatalf("Batches = %d, want 4", st2.Batches)
	}

	// DropLog erases the log and its fold marker; the next state read
	// starts from scratch.
	if err := cat.DropLog("ds"); err != nil {
		t.Fatal(err)
	}
	cat.Reload("ds")
	chunk, st3, err := cat.ReadLogChunk("ds", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk) != 0 || st3.Size != 0 || st3.Batches != 0 {
		t.Fatalf("after DropLog: %d bytes, size %d, batches %d", len(chunk), st3.Size, st3.Batches)
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

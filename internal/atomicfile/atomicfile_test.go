package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// dirNames lists dir's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func TestWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.snap")
	for _, body := range []string{"first", "second"} {
		if err := WriteFile(path, []byte(body)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != body {
			t.Fatalf("read %q, %v; want %q", got, err, body)
		}
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "x.snap" {
		t.Fatalf("directory holds %v, want only x.snap", names)
	}
}

// TestFailedWriteLeavesTarget: a write that fails part-way leaves the
// old file byte for byte and no temp file behind.
func TestFailedWriteLeavesTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.snap")
	if err := WriteFile(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := Write(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half of the new")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write returned %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
		t.Fatalf("target reads %q, %v after a failed write; want %q", got, err, "old")
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "x.snap" {
		t.Fatalf("directory holds %v after a failed write, want only x.snap", names)
	}
	if err := Write(filepath.Join(dir, "missing", "y"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("Write into a missing directory succeeded")
	}
}

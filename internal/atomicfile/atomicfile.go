// Package atomicfile replaces a file in one durable step: the new
// bytes go to a temp file beside the target, which is fsynced, renamed
// over the target, and the directory is fsynced so the rename itself
// survives a power loss. A reader, or a restart, sees the old file or
// the new one, never a mix or neither.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with what fill writes. On any error the target
// is untouched and the temp file is removed. The temp file's name
// starts with a dot and does not end in the target's suffix, so
// directory scans that skip dot files or match suffixes ignore it.
func Write(path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFile is Write for bytes already in memory.
func WriteFile(path string, data []byte) error {
	return Write(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

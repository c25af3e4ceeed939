// Package atomicfile replaces files so that a crash leaves the previous
// content or the complete new content, never a torn file — the write
// discipline of everything a later process start loads: corpora and index
// snapshots.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write creates or replaces path with what fill writes: the bytes go to a
// temporary file in path's directory, are synced to stable storage, and
// the temporary is renamed over path; the directory is synced so the
// rename itself survives a crash. On an error from any step before the
// rename, path is untouched and the temporary is removed.
func Write(path string, fill func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // a second Close after the checked one below only returns an error
			os.Remove(f.Name())
		}
	}()
	if err = fill(f); err != nil {
		return err
	}
	// CreateTemp's 0600 would make snapshots unreadable to a server
	// running as another user; os.Create's mode is what these files had.
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WAL filesystem abstraction. The write-ahead log never touches the
// OS directly: every file operation flows through a walFS, so the crash
// harness can substitute an in-memory filesystem that counts operations,
// kills the "process" after the Nth write/sync, and models which bytes
// actually survived (only what was fsynced is guaranteed; an unsynced
// tail may survive partially — a torn record).
//
// The production implementation (osFS) follows the standard durable
// pattern: data fsynced before it is acknowledged, temp-file + rename
// for atomic replacement, and a directory fsync after metadata changes
// so segment creation and snapshot renames survive power loss.
package driftlog

import (
	"io"
	"os"
)

// walFile is one open WAL file: append-only when created, read-only
// when opened.
type walFile interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync makes everything written so far durable.
	Sync() error
}

// walFS is the filesystem surface the WAL needs. Paths are plain
// slash-joined strings rooted at the WAL directory.
type walFS interface {
	// MkdirAll creates the WAL directory (and parents).
	MkdirAll(dir string) error
	// ReadDir lists the file names (not paths) in dir.
	ReadDir(dir string) ([]string, error)
	// Create opens path for appending, truncating any existing file.
	Create(path string) (walFile, error)
	// Open opens path read-only.
	Open(path string) (walFile, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// Truncate cuts path to size bytes (dropping a torn tail).
	Truncate(path string, size int64) error
	// SyncDir fsyncs the directory so entry creations/renames are
	// durable.
	SyncDir(dir string) error
}

// osFS is the production walFS.
type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (osFS) Create(path string) (walFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (osFS) Open(path string) (walFile, error) { return os.Open(path) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Directory fsync is advisory on some filesystems; a failure there
	// must not fail the write path that already fsynced its data.
	_ = d.Sync()
	return d.Close()
}

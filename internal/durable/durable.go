// Package durable is the one durable-file layer under every persistent
// format in the tree: the serving daemon's write-ahead log and snapshots (internal/serve), the
// policy state blob (internal/core) and the columnar trace store
// (internal/trace). It holds exactly one of each mechanism those formats
// share — the filesystem seam, the atomic file commit, the orphaned-temp
// sweep, the byte cursor pair, the CRC-32C envelope and the checksummed
// record line — and imports nothing from the repository, so any package may
// build on it.
//
// What stays with the callers is policy: which magic and version a file
// carries, and what a reader does with a file or record that fails
// verification (a cache miss, an older snapshot generation, ErrStoreCorrupt,
// a truncated log). Nothing here branches on who is calling.
//
// Durability class: every path through this package survives SIGKILL — a
// committed file is complete or absent, an appended record is in the kernel
// or torn at the tail — and none of it fsyncs. Surviving power loss is the
// caller's choice through File.Sync; no caller in the tree makes it today.
package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// FS is the filesystem seam every durable data operation routes through.
// Production code uses OS; the deterministic fault-injection harness
// (internal/faultinject) substitutes an implementation that injects
// read/write/rename errors, short writes and bit flips on a seeded schedule
// — which is how "a read yields the exact bytes committed or an error,
// never a wrong value" is proven rather than hoped for. Implementations
// must be safe for concurrent use.
type FS interface {
	// ReadFile reads the named file (os.ReadFile semantics: a missing file
	// returns an error satisfying errors.Is(err, os.ErrNotExist)).
	ReadFile(name string) ([]byte, error)
	// CreateTemp creates a new temp file in dir (os.CreateTemp pattern
	// semantics).
	CreateTemp(dir, pattern string) (File, error)
	// OpenAppend opens the named file for appending, creating it if absent;
	// every Write lands at the current end of file.
	OpenAppend(name string) (File, error)
	// Rename atomically moves oldpath over newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// Truncate cuts the named file to size bytes.
	Truncate(name string, size int64) error
}

// File is the writable handle FS hands out.
type File interface {
	Write(p []byte) (n int, err error)
	Sync() error
	Close() error
	Name() string
}

// OS is the real-filesystem FS.
type OS struct{}

func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (OS) CreateTemp(dir, pattern string) (File, error) {
	return asFile(os.CreateTemp(dir, pattern))
}
func (OS) OpenAppend(name string) (File, error) {
	return asFile(os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644))
}
func (OS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error               { return os.Remove(name) }
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// asFile keeps a failed open from becoming a non-nil File holding a nil
// *os.File.
func asFile(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Commit publishes buf as dir/name atomically: temp file in the same
// directory, full-length write, close, rename. A crash at any instant
// leaves the old file (or none) plus at most a stray temp file for Sweep —
// never a live half-file. A short write the filesystem does not itself
// report surfaces as io.ErrShortWrite; a lying disk that reports full
// length while persisting less is caught by the reader's checksum instead.
func Commit(fs FS, dir, name, tmpPattern string, buf []byte) error {
	tmp, err := fs.CreateTemp(dir, tmpPattern)
	if err != nil {
		return err
	}
	n, err := tmp.Write(buf)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		fs.Remove(tmp.Name())
	}
	return err
}

// OrphanAge is how stale a temp file must be before Sweep reclaims it. A
// temp file younger than the gate may belong to a live Commit in another
// process, so it is left alone — it either gets renamed into place or is
// swept by a later open.
const OrphanAge = 15 * time.Minute

// Sweep removes files in dir matching tmpPattern that are older than
// OrphanAge: what a process killed mid-Commit leaves behind. Temp files are
// never read back, so this is purely a disk-space reclaim and best-effort
// by design — a failure costs space, never correctness, so errors are
// ignored (scans and removals race benignly with concurrent opens doing the
// same).
func Sweep(fs FS, dir, tmpPattern string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-OrphanAge)
	for _, ent := range ents {
		if ok, _ := filepath.Match(tmpPattern, ent.Name()); !ok || ent.IsDir() {
			continue
		}
		info, err := ent.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		fs.Remove(filepath.Join(dir, ent.Name()))
	}
}

// OpenLog opens the record log at path (one AppendLine record per line) for
// appending, healing it first: scan is handed the log's current bytes — empty
// when the log does not exist yet — walks them with NextLine under the
// caller's own recovery policy, and returns how many leading bytes it trusts.
// Anything beyond — a record torn by a kill mid-append, or whatever follows a
// record the caller will not read past — is cut off, so the next append
// starts on a line boundary. Writing one AppendLine result to the returned
// file is a single write(2).
func OpenLog(fs FS, path string, scan func(data []byte) (keep int)) (File, error) {
	data, err := fs.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if keep := scan(data); keep < len(data) {
		if err := fs.Truncate(path, int64(keep)); err != nil {
			return nil, fmt.Errorf("heal log tail: %w", err)
		}
	}
	return fs.OpenAppend(path)
}

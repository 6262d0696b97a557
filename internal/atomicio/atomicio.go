// Package atomicio provides crash-safe file writes: content lands in a
// temporary file in the destination directory, is flushed to stable storage
// with fsync, and only then renamed over the destination. A reader (or a
// verifier resuming after a crash) therefore observes either the complete
// previous file or the complete new one — never a truncated artifact that
// looks like a real core, trimmed proof, or stats snapshot.
//
// Two shapes are offered: WriteFile for one-shot writes driven by a
// callback, and File for streaming producers (e.g. a solver emitting proof
// clauses as it learns them) that decide only at the end whether the
// artifact is worth keeping. An uncommitted File disappears on Close, so a
// crash or an error path never leaves a partial file under the final name.
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// tmpInfix sits between a destination's name and the random suffix in the
// name of its temporary file: ".<name>.tmp-<digits>".
const tmpInfix = ".tmp-"

// WriteFile atomically replaces path with the bytes produced by write.
// On any error the destination is left untouched and the temporary file is
// removed.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Commit()
}

// File is a streaming atomic writer. Writes go to a hidden temporary file
// next to the destination; Commit fsyncs and renames it into place, while
// Close before Commit aborts and removes it.
type File struct {
	tmp       *os.File
	path      string
	committed bool
}

// Create opens a temporary file in path's directory. The destination is not
// touched until Commit.
func Create(path string) (*File, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, "."+base+tmpInfix+"*")
	if err != nil {
		return nil, err
	}
	return &File{tmp: tmp, path: path}, nil
}

// Write implements io.Writer.
func (f *File) Write(p []byte) (int, error) { return f.tmp.Write(p) }

// Name returns the destination path the file will commit to.
func (f *File) Name() string { return f.path }

// Commit makes the written content durable under the destination path:
// fsync the temp file, rename it over path, fsync the directory so the
// rename itself survives a crash. After Commit, Close is a no-op.
func (f *File) Commit() error {
	if f.committed {
		return nil
	}
	if err := f.tmp.Sync(); err != nil {
		f.abort()
		return fmt.Errorf("atomicio: sync %s: %w", f.path, err)
	}
	if err := f.tmp.Close(); err != nil {
		os.Remove(f.tmp.Name())
		return fmt.Errorf("atomicio: close %s: %w", f.path, err)
	}
	if err := os.Rename(f.tmp.Name(), f.path); err != nil {
		os.Remove(f.tmp.Name())
		return err
	}
	f.committed = true
	SyncDir(filepath.Dir(f.path))
	return nil
}

// Close aborts the write if Commit has not happened: the temp file is
// removed and the destination stays untouched. Safe to defer alongside an
// explicit Commit.
func (f *File) Close() error {
	if f.committed {
		return nil
	}
	f.abort()
	return nil
}

func (f *File) abort() {
	f.tmp.Close()
	os.Remove(f.tmp.Name())
}

// RemoveTemps deletes the temporary files that a crash between Create and
// Commit (or Close) left in dir; the destinations they were meant for are
// untouched. It must not run while a writer in dir is between Create and
// Commit.
func RemoveTemps(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Type().IsRegular() && isTemp(e.Name()) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// isTemp reports whether name has the shape Create gives its temporary
// files.
func isTemp(name string) bool {
	i := strings.LastIndex(name, tmpInfix)
	if !strings.HasPrefix(name, ".") || i < 1 || i+len(tmpInfix) == len(name) {
		return false
	}
	for _, c := range name[i+len(tmpInfix):] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// SyncDir fsyncs a directory so a just-created or just-renamed entry in it
// survives a crash. Best effort: some platforms/filesystems reject fsync on
// directories, and losing the entry there only re-runs work, so errors are
// deliberately swallowed.
func SyncDir(dir string) {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

package atomicio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new content")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new content" {
		t.Fatalf("content = %q", got)
	}
	assertNoTempFiles(t, dir)
}

func TestWriteFileErrorLeavesOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "old" {
		t.Fatalf("destination clobbered: %q", got)
	}
	assertNoTempFiles(t, dir)
}

func TestFileCloseWithoutCommitAborts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.out")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "streamed bytes that should vanish")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("destination exists after abort: %v", err)
	}
	assertNoTempFiles(t, dir)
}

func TestFileCommitThenCloseIsNoop(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.out")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "kept")
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "kept" {
		t.Fatalf("content = %q", got)
	}
	assertNoTempFiles(t, dir)
}

// TestRemoveTempsKeepsDestinations leaves a temp file of an uncommitted
// write beside a committed one, and checks that RemoveTemps deletes the
// temp file and nothing that merely looks like one.
func TestRemoveTempsKeepsDestinations(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "kept")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "a crash before Commit leaves this")
	f.tmp.Close() // no Close: the process died here
	others := []string{".hidden", "out.txt.tmp-1", ".out.txt.tmp-", ".out.txt.tmp-12x"}
	for _, name := range others {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := RemoveTemps(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(f.tmp.Name()); !os.IsNotExist(err) {
		t.Fatalf("temp file %s survived (err=%v)", f.tmp.Name(), err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "kept" {
		t.Fatalf("destination: %q, err %v", got, err)
	}
	for _, name := range others {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s removed: %v", name, err)
		}
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

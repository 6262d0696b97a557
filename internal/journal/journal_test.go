package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/atomicio"
	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/proof"
)

func testMeta() Meta {
	return Meta{Mode: 1, Engine: 0, Interval: 64,
		FormulaFP: 0xdeadbeefcafe, ProofFP: 0x12345678}
}

func writeJournal(t *testing.T, path string, meta Meta, payloads ...[]byte) {
	t.Helper()
	for _, p := range payloads {
		if err := Write(path, meta, p, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRoundTripReturnsLastCheckpoint writes three records: the file holds
// only the last, as header, payload and CRC, and no temp file stays
// beside it.
func TestRoundTripReturnsLastCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.journal")
	writeJournal(t, path, testMeta(), []byte("first"), []byte("second"), []byte("third"))
	reg := obs.New()
	got, err := Open(path, testMeta(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "third" {
		t.Fatalf("payload = %q, want third", got)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != HeaderSize+5+4 {
		t.Fatalf("journal of %v bytes (err %v), want %d", fi.Size(), err, HeaderSize+5+4)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %d entries (err %v), want the journal alone", len(ents), err)
	}
	if n := reg.Counter("journal.opens").Value(); n != 1 {
		t.Fatalf("journal.opens = %d", n)
	}
}

// TestTruncatedFileIsCorrupt cuts the file at every length: a record is
// replaced whole, so no prefix of it is a record, and every cut is
// ErrCorrupt.
func TestTruncatedFileIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	writeJournal(t, path, testMeta(), []byte("one"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, testMeta(), nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestTornTailFallsBackToLastDurableRecord stops the write of a second
// record after every prefix of its bytes, as a crash would: the torn bytes
// sit in the temporary file beside the journal, never in it, and a resume
// reads the first record.
func TestTornTailFallsBackToLastDurableRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.journal")
	writeJournal(t, path, testMeta(), []byte("one"))
	var rec bytes.Buffer
	if err := Encode(&rec, testMeta(), []byte("two")); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= rec.Len(); cut++ {
		f, err := atomicio.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(rec.Bytes()[:cut]); err != nil {
			t.Fatal(err)
		}
		got, err := Open(path, testMeta(), nil)
		if err != nil || string(got) != "one" {
			t.Fatalf("cut=%d: payload %q, err %v; want one", cut, got, err)
		}
		f.Close()
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %d entries (err %v), want the journal alone", len(ents), err)
	}
}

// TestHeaderOnlyJournalIsEmpty writes a record with no payload: the file is
// the header and the CRC alone, and it reads back as an empty payload, not
// an error. The header without its CRC is a cut file, ErrCorrupt.
func TestHeaderOnlyJournalIsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	writeJournal(t, path, testMeta(), nil)
	data, err := os.ReadFile(path)
	if err != nil || len(data) != HeaderSize+4 {
		t.Fatalf("journal of %d bytes (err %v), want %d", len(data), err, HeaderSize+4)
	}
	got, err := Open(path, testMeta(), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("payload %q, err %v; want an empty payload", got, err)
	}
	if err := os.WriteFile(path, data[:HeaderSize], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, testMeta(), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("header alone: err = %v, want ErrCorrupt", err)
	}
}

// TestCorruptRecordRejectsJournal flips every bit of a journal in turn.
// Each flip is ErrCorrupt, except in the version word, which reads as
// another format version.
func TestCorruptRecordRejectsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	writeJournal(t, path, testMeta(), []byte("aaaa"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), data...)
			flipped[i] ^= 1 << bit
			if err := os.WriteFile(path, flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			want := ErrCorrupt
			if i >= 4 && i < 8 {
				want = ErrVersionSkew
			}
			if _, err := Open(path, testMeta(), nil); !errors.Is(err, want) {
				t.Fatalf("byte %d bit %d: err = %v, want %v", i, bit, err, want)
			}
		}
	}
}

// TestVersionSkewRejected offers a version-1 file, an append-only log of
// framed records as older binaries wrote it.
func TestVersionSkewRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	v1 := binary.LittleEndian.AppendUint32([]byte(Magic), 1)
	v1 = append(v1, make([]byte, 32)...)
	v1 = append(v1, 'C', 1, 0, 0, 0, 'x', 0, 0, 0, 0)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, testMeta(), nil); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("err = %v, want ErrVersionSkew", err)
	}
}

func TestMetaMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	writeJournal(t, path, testMeta(), []byte("x"))
	cases := []func(*Meta){
		func(m *Meta) { m.Mode++ },
		func(m *Meta) { m.Engine++ },
		func(m *Meta) { m.Interval++ },
		func(m *Meta) { m.FormulaFP++ },
		func(m *Meta) { m.ProofFP++ },
	}
	for i, mut := range cases {
		want := testMeta()
		mut(&want)
		if _, err := Open(path, want, nil); !errors.Is(err, ErrMismatch) {
			t.Fatalf("case %d: err = %v, want ErrMismatch", i, err)
		}
	}
}

func TestMissingJournal(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), testMeta(), nil); !errors.Is(err, ErrNoJournal) {
		t.Fatalf("err = %v, want ErrNoJournal", err)
	}
}

func TestGarbageFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	os.WriteFile(path, bytes.Repeat([]byte("not a journal "), 10), 0o644)
	if _, err := Open(path, testMeta(), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestRemove deletes a journal, is no error without one, and refuses to
// delete a directory named as the journal.
func TestRemove(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.journal")
	writeJournal(t, path, testMeta(), []byte("x"))
	for i := 0; i < 2; i++ {
		if err := Remove(path); err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("journal survived Remove (err=%v)", err)
	}
	if err := Remove(dir); err == nil {
		t.Fatal("Remove accepted a directory")
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("directory removed (err=%v)", err)
	}
}

func TestFingerprintsDiscriminate(t *testing.T) {
	f := cnf.NewFormula(3).Add(1, 2).Add(-1, 3)
	g := f.Clone()
	if FingerprintFormula(f) != FingerprintFormula(g) {
		t.Fatal("clone fingerprint differs")
	}
	g.Clauses[0][0] = g.Clauses[0][0].Neg()
	if FingerprintFormula(f) == FingerprintFormula(g) {
		t.Fatal("mutated formula fingerprint collides")
	}

	tr := proof.New()
	tr.Append(cnf.Clause{cnf.FromDimacs(1)}, 1)
	tr.Append(cnf.Clause{cnf.FromDimacs(-1)}, 1)
	tr2 := tr.Clone()
	if FingerprintTrace(tr) != FingerprintTrace(tr2) {
		t.Fatal("clone trace fingerprint differs")
	}
	tr2.Clauses = tr2.Clauses[:1]
	if FingerprintTrace(tr) == FingerprintTrace(tr2) {
		t.Fatal("truncated trace fingerprint collides")
	}
}

// TestAppendCopiesNoPayload pins the copy-free record: Write encodes its
// header and CRC around the caller's payload, so it allocates as often for
// a 1 MiB payload as for a 1 KiB one, and far fewer bytes than the
// payload.
func TestAppendCopiesNoPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	writeAllocs := func(n int) (float64, uint64) {
		p := bytes.Repeat([]byte{7}, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(4, func() {
			if err := Write(path, testMeta(), p, nil); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 5
	}
	small, _ := writeAllocs(1 << 10)
	large, bytesPerWrite := writeAllocs(1 << 20)
	t.Logf("%.0f allocations per 1 KiB write, %.0f (%d bytes) per 1 MiB write", small, large, bytesPerWrite)
	if small != large {
		t.Errorf("a 1 KiB write allocates %.0f times, a 1 MiB write %.0f", small, large)
	}
	if bytesPerWrite >= 1<<16 {
		t.Errorf("a 1 MiB write allocated %d bytes: the payload was copied", bytesPerWrite)
	}
	// The record still reads back.
	got, err := Open(path, testMeta(), nil)
	if err != nil || len(got) != 1<<20 {
		t.Fatalf("reopening: %d-byte payload, err %v", len(got), err)
	}
}

package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/proof"
)

func testMeta() Meta {
	return Meta{Kind: KindVerifySeq, Mode: 1, Engine: 0, Interval: 64,
		FormulaFP: 0xdeadbeefcafe, ProofFP: 0x12345678}
}

func writeJournal(t *testing.T, path string, meta Meta, payloads ...[]byte) {
	t.Helper()
	w, err := Create(path, meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripReturnsLastCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	writeJournal(t, path, testMeta(), []byte("first"), []byte("second"), []byte("third"))
	got, err := Open(path, testMeta(), obs.New())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "third" {
		t.Fatalf("payload = %q, want third", got)
	}
}

func TestFinalRecordIsNotResumedFrom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	w, err := Create(path, testMeta(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendFinal([]byte("final-marker")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := Open(path, testMeta(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "checkpoint" {
		t.Fatalf("payload = %q, want checkpoint", got)
	}
}

func TestTornTailFallsBackToLastDurableRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	writeJournal(t, path, testMeta(), []byte("one"), []byte("two"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the tail one at a time down to the end of record one;
	// every truncation length must resume from a durable record, never error.
	firstEnd := HeaderSize + 5 + 3 + 4
	for cut := len(data) - 1; cut >= firstEnd; cut-- {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Open(path, testMeta(), nil)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		want := "one"
		if cut == len(data) {
			want = "two"
		}
		if string(got) != want {
			t.Fatalf("cut=%d: payload %q, want %q", cut, got, want)
		}
	}
	// Truncating into (or past) the only record leaves no durable state.
	if err := os.WriteFile(path, data[:firstEnd-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, testMeta(), nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestCorruptRecordRejectsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	writeJournal(t, path, testMeta(), []byte("aaaa"), []byte("bbbb"))
	data, _ := os.ReadFile(path)
	// Flip a payload byte of the first (fully-framed) record.
	data[HeaderSize+6] ^= 0x40
	os.WriteFile(path, data, 0o644)
	if _, err := Open(path, testMeta(), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestVersionSkewRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	writeJournal(t, path, testMeta(), []byte("x"))
	data, _ := os.ReadFile(path)
	binary.LittleEndian.PutUint32(data[4:], Version+1)
	os.WriteFile(path, data, 0o644)
	if _, err := Open(path, testMeta(), nil); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("err = %v, want ErrVersionSkew", err)
	}
}

func TestMetaMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	writeJournal(t, path, testMeta(), []byte("x"))
	cases := []func(*Meta){
		func(m *Meta) { m.Kind++ },
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

func TestHeaderOnlyJournalIsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	writeJournal(t, path, testMeta())
	if _, err := Open(path, testMeta(), nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestGarbageFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	os.WriteFile(path, bytes.Repeat([]byte("not a journal "), 10), 0o644)
	if _, err := Open(path, testMeta(), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
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

// TestAppendCopiesNoPayload pins the copy-free frame: Append writes its
// head and CRC around the caller's payload, so it allocates as often for a
// 1 MiB payload as for a 1 KiB one, and far fewer bytes than the payload.
func TestAppendCopiesNoPayload(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "ck.journal"), testMeta(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendAllocs := func(n int) (float64, uint64) {
		p := bytes.Repeat([]byte{7}, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(4, func() {
			if err := w.Append(p); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 5
	}
	small, _ := appendAllocs(1 << 10)
	large, bytesPerAppend := appendAllocs(1 << 20)
	t.Logf("%.0f allocations per 1 KiB append, %.0f (%d bytes) per 1 MiB append", small, large, bytesPerAppend)
	if small != large {
		t.Errorf("a 1 KiB append allocates %.0f times, a 1 MiB append %.0f", small, large)
	}
	if bytesPerAppend >= 1<<16 {
		t.Errorf("a 1 MiB append allocated %d bytes: the payload was copied", bytesPerAppend)
	}
	// The records still read back.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Open(w.Path(), testMeta(), nil)
	if err != nil || len(got) != 1<<20 {
		t.Fatalf("reopening: %d-byte payload, err %v", len(got), err)
	}
}

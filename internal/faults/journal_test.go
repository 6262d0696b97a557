package faults

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
)

// TestJournalFaultMatrix corrupts a real checkpoint journal in every
// JournalKind and then resumes from it through core.StartJournal, the
// journal lifecycle every caller runs. The journal holds one record, so
// there is nothing earlier to fall back to: every corruption must be
// refused with its typed warning and cost a full re-verification, never
// change the verdict, crash, or hang — and resume must never invent a
// record. The clean journal itself resumes from the last record the
// baseline wrote, so the harness is not asserting refusals of a file that
// could never resume.
func TestJournalFaultMatrix(t *testing.T) {
	f, tr := goodInstance(t, 5)
	const every = 40
	proofFP := journal.FingerprintTrace(tr)

	// Baseline: a checkpointed run writing a genuine journal, keeping a copy
	// of every payload it wrote.
	dir := t.TempDir()
	cleanPath := filepath.Join(dir, "ckpt.dpvj")
	opt := core.Options{Mode: core.ModeCheckMarked}
	jw, _, err := core.StartJournal(cleanPath, f, tr.Len(), proofFP, &opt, every, false)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	sink := opt.Checkpoint.Sink
	opt.Checkpoint.Sink = func(b []byte) error {
		payloads = append(payloads, append([]byte(nil), b...))
		return sink(b)
	}
	base, err := core.Verify(f, tr, opt)
	if err != nil || !base.OK {
		t.Fatalf("baseline checkpointed run: err=%v res=%+v", err, base)
	}
	if len(payloads) < 2 {
		t.Fatalf("want >= 2 checkpoint records, got %d", len(payloads))
	}
	clean, err := os.ReadFile(cleanPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cleanPath); !os.IsNotExist(err) {
		t.Fatalf("journal still present after a verdict (err=%v)", err)
	}

	// resume writes data as a journal, resumes a run from it and checks the
	// verdict; it returns the run's resume state and warning.
	resume := func(t *testing.T, name string, data []byte) (*core.Checkpoint, error) {
		t.Helper()
		path := filepath.Join(dir, name+".dpvj")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		opt := core.Options{Mode: core.ModeCheckMarked, Ctx: ctx}
		j, warn, err := core.StartJournal(path, f, tr.Len(), proofFP, &opt, every, true)
		if err != nil {
			t.Fatal(err)
		}
		cp := opt.Checkpoint.Resume
		if (warn == nil) != (cp != nil) {
			t.Fatalf("warning %v with resume %v", warn, cp != nil)
		}
		if cp == nil {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("refused journal still present at the start of a full run (err=%v)", err)
			}
		}
		res, verr := core.Verify(f, tr, opt)
		if err := j.Finish(verr); err != nil {
			t.Fatal(err)
		}
		if errors.Is(verr, core.ErrDeadline) || errors.Is(verr, core.ErrCancelled) {
			t.Fatalf("verification hit the 10s deadline")
		}
		if verr != nil || !res.OK {
			t.Fatalf("verdict changed: err=%v res=%+v", verr, res)
		}
		if res.Tested != base.Tested || res.MarkedProof != base.MarkedProof ||
			fmt.Sprint(res.Core) != fmt.Sprint(base.Core) {
			t.Fatalf("resumed result diverged: tested=%d/%d marked=%d/%d",
				res.Tested, base.Tested, res.MarkedProof, base.MarkedProof)
		}
		return cp, warn
	}

	t.Run("clean", func(t *testing.T) {
		cp, warn := resume(t, "clean", clean)
		if warn != nil || cp == nil || !bytes.Equal(cp.Encode(), payloads[len(payloads)-1]) {
			t.Fatalf("clean journal: warning %v, resume %v; want the last record written", warn, cp != nil)
		}
	})

	want := map[JournalKind]error{
		JournalTruncatedTail:    journal.ErrCorrupt,
		JournalBitFlip:          journal.ErrCorrupt,
		JournalStaleFingerprint: journal.ErrMismatch,
		JournalVersionSkew:      journal.ErrVersionSkew,
	}
	for _, kind := range JournalKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				inj := New(2000 + seed)
				inj.Obs = obs.New()
				data, ok := inj.ApplyJournal(kind, clean)
				if !ok {
					t.Fatalf("seed %d: %v inapplicable to a real journal", seed, kind)
				}
				if got := inj.Obs.Counter("faults.injected").Value(); got != 1 {
					t.Fatalf("seed %d: faults.injected = %d", seed, got)
				}
				cp, warn := resume(t, fmt.Sprintf("%v-%d", kind, seed), data)
				if !errors.Is(warn, want[kind]) {
					t.Fatalf("seed %d: warning = %v, want %v", seed, warn, want[kind])
				}
				if cp != nil {
					t.Fatalf("seed %d: resumed from a corrupted journal", seed)
				}
			}
		})
	}
}

// TestJournalFaultDeterminism pins reproduce-from-seed for the journal arm.
func TestJournalFaultDeterminism(t *testing.T) {
	f, tr := goodInstance(t, 4)
	meta := journal.Meta{Interval: 16,
		FormulaFP: journal.FingerprintFormula(f), ProofFP: journal.FingerprintTrace(tr)}
	var b bytes.Buffer
	if err := journal.Encode(&b, meta, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	data := b.Bytes()
	for _, kind := range JournalKinds {
		a, ok1 := New(11).ApplyJournal(kind, data)
		b, ok2 := New(11).ApplyJournal(kind, data)
		if ok1 != ok2 || !bytes.Equal(a, b) {
			t.Fatalf("%v: same seed produced different corruptions", kind)
		}
	}
	// Clone discipline: the input must be untouched.
	want := append([]byte(nil), data...)
	inj := New(5)
	for _, kind := range JournalKinds {
		inj.ApplyJournal(kind, data)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("ApplyJournal mutated its input")
	}
}

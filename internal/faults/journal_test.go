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
// journal lifecycle every caller runs, falling back to a full run on any
// failure. The contract under test is the degradation ladder — a damaged
// journal may cost work (resume from an earlier record, or a full
// re-verification) but may never change the verdict, crash, or hang.
// Resume must also never invent a record: any record it resumes from must
// be byte-identical to one the baseline run appended.
func TestJournalFaultMatrix(t *testing.T) {
	f, tr := goodInstance(t, 5)
	const every = 40
	proofFP := journal.FingerprintTrace(tr)

	// Baseline: a checkpointed run writing a genuine journal, keeping a copy
	// of every payload it appended.
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
		t.Fatalf("want >= 2 checkpoint records to corrupt, got %d", len(payloads))
	}
	clean, err := os.ReadFile(cleanPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Finish(base, nil); err != nil {
		t.Fatal(err)
	}

	isAppended := func(p []byte) (idx int, ok bool) {
		for i, q := range payloads {
			if bytes.Equal(p, q) {
				return i, true
			}
		}
		return -1, false
	}

	for _, kind := range JournalKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			resumes, fullRuns := 0, 0
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
				path := filepath.Join(dir, fmt.Sprintf("%v-%d.dpvj", kind, seed))
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}

				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				opt := core.Options{Mode: core.ModeCheckMarked, Ctx: ctx}
				j, warn, err := core.StartJournal(path, f, tr.Len(), proofFP, &opt, every, true)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				resume := opt.Checkpoint.Resume
				switch kind {
				case JournalStaleFingerprint:
					if !errors.Is(warn, journal.ErrMismatch) {
						t.Fatalf("seed %d: warning = %v, want ErrMismatch", seed, warn)
					}
				case JournalVersionSkew:
					if !errors.Is(warn, journal.ErrVersionSkew) {
						t.Fatalf("seed %d: warning = %v, want ErrVersionSkew", seed, warn)
					}
				case JournalTruncatedTail:
					// A torn tail is tolerated: resume from an earlier record,
					// or an empty journal when the cut swallowed them all. The
					// final record is torn by construction, so resume must
					// have degraded to an earlier one.
					if warn != nil && !errors.Is(warn, journal.ErrEmpty) {
						t.Fatalf("seed %d: warning = %v, want nil or ErrEmpty", seed, warn)
					}
					if resume != nil {
						if i, ok := isAppended(resume.Encode()); !ok || i == len(payloads)-1 {
							t.Fatalf("seed %d: truncated journal resumed record %d ok=%v", seed, i, ok)
						}
					}
				case JournalBitFlip:
					// CRC32 catches every single-bit error inside a framed
					// record; a flip in a length field can also tear the tail.
					if warn != nil && !errors.Is(warn, journal.ErrCorrupt) && !errors.Is(warn, journal.ErrEmpty) {
						t.Fatalf("seed %d: warning = %v, want ErrCorrupt or ErrEmpty", seed, warn)
					}
				}
				if (warn == nil) != (resume != nil) {
					t.Fatalf("seed %d: warning %v with resume %v", seed, warn, resume != nil)
				}
				if resume != nil {
					if _, ok := isAppended(resume.Encode()); !ok {
						t.Fatalf("seed %d: resumed from a record that was never appended", seed)
					}
					resumes++
				} else {
					fullRuns++
				}
				res, verr := core.Verify(f, tr, opt)
				cancel()
				if err := j.Finish(res, verr); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if errors.Is(verr, core.ErrDeadline) || errors.Is(verr, core.ErrCancelled) {
					t.Fatalf("seed %d: verification after %v hit the 10s deadline", seed, kind)
				}
				if verr != nil || !res.OK {
					t.Fatalf("seed %d: %v changed the verdict: err=%v res=%+v", seed, kind, verr, res)
				}
				if res.Tested != base.Tested || res.MarkedProof != base.MarkedProof ||
					fmt.Sprint(res.Core) != fmt.Sprint(base.Core) {
					t.Fatalf("seed %d: resumed result diverged: tested=%d/%d marked=%d/%d",
						seed, res.Tested, base.Tested, res.MarkedProof, base.MarkedProof)
				}
			}
			// Header-level corruptions must always force a full run; a harness
			// where nothing ever degrades would be asserting nothing.
			if (kind == JournalStaleFingerprint || kind == JournalVersionSkew) && fullRuns != 10 {
				t.Errorf("%v: %d full runs, want 10", kind, fullRuns)
			}
			t.Logf("%v: %d resumed, %d full runs", kind, resumes, fullRuns)
		})
	}
}

// TestJournalFaultDeterminism pins reproduce-from-seed for the journal arm.
func TestJournalFaultDeterminism(t *testing.T) {
	f, tr := goodInstance(t, 4)
	meta := journal.Meta{Kind: journal.KindVerifySeq, Interval: 16,
		FormulaFP: journal.FingerprintFormula(f), ProofFP: journal.FingerprintTrace(tr)}
	data := journal.EncodeHeader(meta)
	for i := 0; i < 4; i++ {
		data = append(data, byte('C'), 4, 0, 0, 0, 1, 2, 3, byte(i))
		data = append(data, 0xde, 0xad, 0xbe, 0xef) // CRC value is irrelevant here
	}
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

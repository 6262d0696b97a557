package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/bcp"
	"repro/internal/obs"
)

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	seq := &Checkpoint{
		NextIndex:   41,
		Marked:      []bool{true, false, true, true, false, false, true},
		Tested:      9,
		Skipped:     3,
		Tautologies: 1,
		Stats:       bcp.Stats{Propagations: 100, Refutations: 12, Conflicts: 11, WatcherVisits: 500, OccTouches: 7},
	}
	got, err := DecodeCheckpoint(seq.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(seq) {
		t.Fatalf("sequential round trip:\n got %+v\nwant %+v", got, seq)
	}

	par := &Checkpoint{
		Par: true,
		Workers: []WorkerState{
			{Next: 10, Tested: 5, Tautologies: 0, Stats: bcp.Stats{Propagations: 50}},
			{Next: 20, Tested: 7, Tautologies: 2, Stats: bcp.Stats{Conflicts: 7, OccTouches: 3}},
			{Next: -1, Tested: 0, Tautologies: 0},
		},
	}
	got, err = DecodeCheckpoint(par.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(par) {
		t.Fatalf("parallel round trip:\n got %+v\nwant %+v", got, par)
	}
}

func TestDecodeCheckpointRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{checkpointVersion},
		{checkpointVersion + 9, 0},
		{checkpointVersion, 0, 1, 2, 3}, // truncated sequential state
		{checkpointVersion, 1, 4, 0, 0, 0, 0, 0, 0, 0}, // 4 workers, no states
	}
	for i, b := range cases {
		if _, err := DecodeCheckpoint(b); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("case %d: err = %v, want ErrBadCheckpoint", i, err)
		}
	}
	// A valid encoding with trailing junk must not decode.
	enc := append((&Checkpoint{NextIndex: 1, Marked: []bool{true}}).Encode(), 0xff)
	if _, err := DecodeCheckpoint(enc); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("trailing junk: err = %v, want ErrBadCheckpoint", err)
	}
}

// Version 3 was the phase-2 record of the retired two-phase DAG pipeline.
// A journal written by an older binary can still hold one; it must decode
// to ErrBadCheckpoint so resume falls back to a full run.
func TestDecodeCheckpointRejectsRetiredV3(t *testing.T) {
	hinted := (&Checkpoint{NextIndex: 3, Marked: make([]bool, 10), Hints: []byte{1, 2, 3}}).Encode()
	if hinted[0] != checkpointVersionHints {
		t.Fatalf("hinted payload has version %d, want %d", hinted[0], checkpointVersionHints)
	}
	// The old v3 layout was the hinted layout under version byte 3 and
	// flag byte 2.
	v3 := append([]byte{3, 2}, hinted[2:]...)
	for _, b := range [][]byte{v3, append([]byte{3}, hinted[1:]...)} {
		if _, err := DecodeCheckpoint(b); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("version-3 payload: err = %v, want ErrBadCheckpoint", err)
		}
	}
}

func TestCheckpointValidateFor(t *testing.T) {
	ok := &Checkpoint{NextIndex: 5, Marked: make([]bool, 10+20)}
	if err := ok.ValidateFor(10, 20, 0); err != nil {
		t.Fatal(err)
	}
	bad := []*Checkpoint{
		{NextIndex: 20, Marked: make([]bool, 30)},    // index out of range
		{NextIndex: -1, Marked: make([]bool, 30)},    // index out of range
		{NextIndex: 5, Marked: make([]bool, 29)},     // bitmap size
		{Par: true, Workers: make([]WorkerState, 2)}, // parallel vs sequential
	}
	for i, cp := range bad {
		if err := cp.ValidateFor(10, 20, 0); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("case %d: err = %v, want ErrBadCheckpoint", i, err)
		}
	}

	// Parallel: m=5, workers=4 → chunk=2, chunks [0,2) [2,4) [4,5) and one
	// empty chunk whose slot must carry the sentinel m.
	pok := &Checkpoint{Par: true, Workers: []WorkerState{
		{Next: 1}, {Next: 3}, {Next: 4}, {Next: 5},
	}}
	if err := pok.ValidateFor(10, 5, 4); err != nil {
		t.Fatal(err)
	}
	pbad := &Checkpoint{Par: true, Workers: []WorkerState{
		{Next: 1}, {Next: 3}, {Next: 4}, {Next: 0}, // empty chunk without sentinel
	}}
	if err := pbad.ValidateFor(10, 5, 4); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("err = %v, want ErrBadCheckpoint", err)
	}
	if err := pok.ValidateFor(10, 5, 3); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("worker count mismatch: err = %v, want ErrBadCheckpoint", err)
	}
}

// snapshotCounters reads the obs counters that must be identical between an
// uninterrupted checkpointed run and a killed-and-resumed one.
func snapshotCounters(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, name := range []string{
		"verify.checked", "verify.skipped", "verify.tautologies",
		"verify.marked", "verify.marked_orig",
		"bcp.propagations", "bcp.refutations", "bcp.conflicts",
		"bcp.watcher_visits", "bcp.occ_touches",
	} {
		out[name] = reg.Counter(name).Value()
	}
	return out
}

func resultFingerprint(res *Result) string {
	return fmt.Sprintf("ok=%v failed=%d tested=%d skipped=%d taut=%d props=%d core=%v used=%v markedProof=%d",
		res.OK, res.FailedIndex, res.Tested, res.Skipped, res.Tautologies,
		res.Propagations, res.Core, res.UsedProof, res.MarkedProof)
}

// TestSequentialResumeMatchesUninterrupted is the golden determinism test:
// for every mode × engine, a checkpointed run is re-run from EVERY journal
// record it produced, and each resumed run must reproduce the original
// result — same verdict, same core, same counters — exactly.
func TestSequentialResumeMatchesUninterrupted(t *testing.T) {
	f, tr := longChain(120)
	const every = 16
	for _, base := range allModes() {
		base := base
		t.Run(fmt.Sprintf("%v-%v", base.Mode, base.Engine), func(t *testing.T) {
			var records [][]byte
			regA := obs.New()
			optA := base
			optA.Obs = regA
			optA.Checkpoint = CheckpointConfig{Every: every, Sink: func(p []byte) error {
				records = append(records, append([]byte(nil), p...))
				return nil
			}}
			resA, err := Verify(f, tr, optA)
			if err != nil || !resA.OK {
				t.Fatalf("uninterrupted: err=%v res=%+v", err, resA)
			}
			if len(records) == 0 {
				t.Fatal("no checkpoint records written")
			}
			wantRes := resultFingerprint(resA)
			wantObs := fmt.Sprint(snapshotCounters(regA))

			// The checkpointed run must agree with a plain run on the verdict
			// (the canonical rebuilds may pick different-but-valid cores).
			plain, err := Verify(f, tr, base)
			if err != nil || plain.OK != resA.OK {
				t.Fatalf("plain run disagrees: err=%v ok=%v", err, plain.OK)
			}

			for k, rec := range records {
				cp, err := DecodeCheckpoint(rec)
				if err != nil {
					t.Fatalf("record %d: %v", k, err)
				}
				regC := obs.New()
				optC := base
				optC.Obs = regC
				optC.Checkpoint = CheckpointConfig{Every: every, Resume: cp}
				resC, err := Verify(f, tr, optC)
				if err != nil {
					t.Fatalf("resume from record %d: %v", k, err)
				}
				if got := resultFingerprint(resC); got != wantRes {
					t.Fatalf("resume from record %d diverged:\n got %s\nwant %s", k, got, wantRes)
				}
				if got := fmt.Sprint(snapshotCounters(regC)); got != wantObs {
					t.Fatalf("resume from record %d: counters diverged:\n got %s\nwant %s", k, got, wantObs)
				}
			}
		})
	}
}

// TestSequentialBudgetInterruptThenResume interrupts a run for real (budget
// exhaustion mid-scan), then resumes from the journal tail and requires the
// combined run to match the uninterrupted one.
func TestSequentialBudgetInterruptThenResume(t *testing.T) {
	f, tr := longChain(120)
	const every = 8
	for _, eng := range []EngineKind{EngineWatched, EngineCounting} {
		eng := eng
		t.Run(fmt.Sprint(eng), func(t *testing.T) {
			regA := obs.New()
			resA, err := Verify(f, tr, Options{Mode: ModeCheckMarked, Engine: eng, Obs: regA,
				Checkpoint: CheckpointConfig{Every: every, Sink: func([]byte) error { return nil }}})
			if err != nil || !resA.OK {
				t.Fatalf("uninterrupted: err=%v res=%+v", err, resA)
			}

			// Budget chosen to die somewhere in the middle of the scan.
			var records [][]byte
			interrupted, err := Verify(f, tr, Options{Mode: ModeCheckMarked, Engine: eng,
				Budget: Budget{MaxPropagations: resA.Propagations / 2},
				Checkpoint: CheckpointConfig{Every: every, Sink: func(p []byte) error {
					records = append(records, append([]byte(nil), p...))
					return nil
				}}})
			var be *BudgetError
			if !errors.As(err, &be) || !interrupted.Incomplete {
				t.Fatalf("expected budget interruption, got err=%v res=%+v", err, interrupted)
			}
			if len(records) == 0 {
				t.Fatal("interrupted run left no checkpoint records")
			}

			cp, err := DecodeCheckpoint(records[len(records)-1])
			if err != nil {
				t.Fatal(err)
			}
			regC := obs.New()
			resC, err := Verify(f, tr, Options{Mode: ModeCheckMarked, Engine: eng, Obs: regC,
				Checkpoint: CheckpointConfig{Every: every, Resume: cp}})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := resultFingerprint(resC), resultFingerprint(resA); got != want {
				t.Fatalf("resumed run diverged:\n got %s\nwant %s", got, want)
			}
			if got, want := fmt.Sprint(snapshotCounters(regC)), fmt.Sprint(snapshotCounters(regA)); got != want {
				t.Fatalf("resumed counters diverged:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestParallelResumeMatchesUninterrupted mirrors the golden test for the
// parallel verifier: resuming from every journal record reproduces the
// uninterrupted tallies and counters.
func TestParallelResumeMatchesUninterrupted(t *testing.T) {
	f, tr := longChain(100)
	const workers, every = 3, 8
	for _, eng := range []EngineKind{EngineWatched, EngineCounting} {
		eng := eng
		t.Run(fmt.Sprint(eng), func(t *testing.T) {
			var records [][]byte
			regA := obs.New()
			resA, err := VerifyParallelOpts(f, tr, Options{Engine: eng, Obs: regA,
				Checkpoint: CheckpointConfig{Every: every, Sink: func(p []byte) error {
					records = append(records, append([]byte(nil), p...))
					return nil
				}}}, workers)
			if err != nil || !resA.OK {
				t.Fatalf("uninterrupted: err=%v res=%+v", err, resA)
			}
			if len(records) == 0 {
				t.Fatal("no checkpoint records written")
			}
			wantRes := resultFingerprint(resA)
			wantObs := fmt.Sprint(snapshotCounters(regA))

			for k, rec := range records {
				cp, err := DecodeCheckpoint(rec)
				if err != nil {
					t.Fatalf("record %d: %v", k, err)
				}
				regC := obs.New()
				resC, err := VerifyParallelOpts(f, tr, Options{Engine: eng, Obs: regC,
					Checkpoint: CheckpointConfig{Every: every, Resume: cp}}, workers)
				if err != nil {
					t.Fatalf("resume from record %d: %v", k, err)
				}
				if got := resultFingerprint(resC); got != wantRes {
					t.Fatalf("resume from record %d diverged:\n got %s\nwant %s", k, got, wantRes)
				}
				if got := fmt.Sprint(snapshotCounters(regC)); got != wantObs {
					t.Fatalf("resume from record %d: counters diverged:\n got %s\nwant %s", k, got, wantObs)
				}
			}
		})
	}
}

// TestResumeRequiresValidation: handing Verify a checkpoint that does not
// fit the run must fail loudly, not corrupt the scan.
func TestResumeRequiresValidation(t *testing.T) {
	f, tr := longChain(30)
	cp := &Checkpoint{NextIndex: 999, Marked: make([]bool, 5)}
	if _, err := Verify(f, tr, Options{Checkpoint: CheckpointConfig{Every: 4, Resume: cp}}); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("err = %v, want ErrBadCheckpoint", err)
	}
	// Resume without an interval is a caller bug.
	good := &Checkpoint{NextIndex: 5, Marked: make([]bool, len(f.Clauses)+len(tr.Clauses))}
	if _, err := Verify(f, tr, Options{Checkpoint: CheckpointConfig{Resume: good}}); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("err = %v, want ErrBadCheckpoint", err)
	}
	if _, err := VerifyParallelOpts(f, tr, Options{Checkpoint: CheckpointConfig{Resume: good}}, 4); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("parallel err = %v, want ErrBadCheckpoint", err)
	}
}

// TestCheckpointSinkErrorStopsRun: a failing journal append must surface as
// an error with a partial result, like any other stop cause.
func TestCheckpointSinkErrorStopsRun(t *testing.T) {
	f, tr := longChain(60)
	sinkErr := errors.New("disk full")
	res, err := Verify(f, tr, Options{Checkpoint: CheckpointConfig{Every: 4,
		Sink: func([]byte) error { return sinkErr }}})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want wrapped sink error", err)
	}
	if res == nil || !res.Incomplete {
		t.Fatalf("res = %+v, want Incomplete partial result", res)
	}
}

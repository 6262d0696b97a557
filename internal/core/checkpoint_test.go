package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/bcp"
	"repro/internal/gen"
	"repro/internal/lrat"
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
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, seq)
	}
}

func TestDecodeCheckpointRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{checkpointVersionSeq},
		{checkpointVersionSeq + 9, 0},
		{checkpointVersionSeq, 0, 1, 2, 3}, // truncated state
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

// Versions 1 and 3 are retired: version 1 was a chunked parallel run's
// per-worker state and, before core-first propagation, the sequential
// payload; version 3 was the phase-2 record of the retired two-phase DAG
// pipeline. A journal written by an older binary can still hold one; it
// must decode to ErrBadCheckpoint so resume falls back to a full run,
// while the current versions 2 and 4 still decode.
func TestDecodeCheckpointRejectsRetired(t *testing.T) {
	seq := (&Checkpoint{NextIndex: 3, Marked: make([]bool, 10), Tested: 2}).Encode()
	hinted := (&Checkpoint{NextIndex: 3, Marked: make([]bool, 10), Hints: new(lrat.Recorder)}).Encode()
	for _, b := range [][]byte{seq, hinted} {
		if _, err := DecodeCheckpoint(b); err != nil {
			t.Fatalf("version-%d payload: %v", b[0], err)
		}
	}
	if seq[0] != checkpointVersionSeq || hinted[0] != checkpointVersionHints {
		t.Fatalf("payload versions %d and %d, want %d and %d",
			seq[0], hinted[0], checkpointVersionSeq, checkpointVersionHints)
	}
	// A chunked run's record: version 1, flag byte 1, a worker count, and
	// per worker its next index, tested and tautology counts and five bcp
	// counters.
	par := append([]byte{1, 1, 3, 0, 0, 0, 0, 0, 0, 0}, make([]byte, 3*8*8)...)
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		// The version-1 sequential layout is the version-4 one under byte 1.
		{"v1-sequential", append([]byte{1}, seq[1:]...)},
		{"v1-parallel", par},
		// The version-3 layout was the hinted one under version byte 3 and
		// flag byte 2.
		{"v3", append([]byte{3, 2}, hinted[2:]...)},
		{"v3-flag0", append([]byte{3}, hinted[1:]...)},
		{"v4-parallel-flag", append([]byte{checkpointVersionSeq}, par[1:]...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeCheckpoint(tc.b); !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("err = %v, want ErrBadCheckpoint", err)
			}
		})
	}
}

// The hint recorder after a hinted payload's bitmap is decoded with the
// payload, so a blob that is not binary LRAT fails DecodeCheckpoint rather
// than the resume that would use it.
func TestDecodeCheckpointRejectsGarbledHints(t *testing.T) {
	var rec lrat.Recorder
	rec.Record(31, nil, []int64{1, 2})
	hinted := (&Checkpoint{NextIndex: 5, Marked: make([]bool, 30), Hints: &rec}).Encode()
	if _, err := DecodeCheckpoint(hinted); err != nil {
		t.Fatalf("hinted payload: %v", err)
	}
	blob := len(hinted) - rec.EncodedLen()
	for _, tail := range [][]byte{{0xff}, {}, hinted[blob : len(hinted)-1]} {
		b := append(append([]byte(nil), hinted[:blob]...), tail...)
		if _, err := DecodeCheckpoint(b); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("hint blob %x: err = %v, want ErrBadCheckpoint", tail, err)
		}
	}
}

// A hinted run's checkpoint follows input order, so a run without hints,
// which propagates core-first, must refuse to resume from it.
func TestResumeRefusesHintedCheckpointWithoutHints(t *testing.T) {
	inst := gen.RandUnsat(3, 14)
	tr := solveTrace(t, inst)
	var records [][]byte
	_, err := Verify(inst.F, tr, Options{Hints: new(lrat.Recorder),
		Checkpoint: CheckpointConfig{Every: 4, Sink: func(p []byte) error {
			records = append(records, append([]byte(nil), p...))
			return nil
		}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no checkpoint records emitted")
	}
	cp, err := DecodeCheckpoint(records[0])
	if err != nil {
		t.Fatal(err)
	}
	_, err = Verify(inst.F, tr, Options{Checkpoint: CheckpointConfig{Every: 4, Resume: cp}})
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("unhinted resume from a hinted checkpoint: err = %v, want ErrBadCheckpoint", err)
	}
}

func TestCheckpointFit(t *testing.T) {
	ok := &Checkpoint{NextIndex: 5, Marked: make([]bool, 10+20)}
	if err := ok.fit(10, 20, false); err != nil {
		t.Fatal(err)
	}
	bad := []*Checkpoint{
		{NextIndex: 20, Marked: make([]bool, 30)},                           // index out of range
		{NextIndex: -1, Marked: make([]bool, 30)},                           // index out of range
		{NextIndex: 5, Marked: make([]bool, 29)},                            // bitmap size
		{NextIndex: 5, Marked: make([]bool, 30), Hints: new(lrat.Recorder)}, // hinted record, unhinted run
	}
	for i, cp := range bad {
		if err := cp.fit(10, 20, false); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("case %d: err = %v, want ErrBadCheckpoint", i, err)
		}
	}
	if err := ok.fit(10, 20, true); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("unhinted record, hinted run: err = %v, want ErrBadCheckpoint", err)
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

// TestResumeRequiresValidation: handing Verify a checkpoint that does not
// fit the run must fail loudly, not corrupt the scan, and VerifyParallelOpts
// refuses checkpointing outright, even on one worker.
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
	for _, workers := range []int{1, 4} {
		for _, ck := range []CheckpointConfig{{Every: 4}, {Resume: good}} {
			if _, err := VerifyParallelOpts(f, tr, Options{Checkpoint: ck}, workers); !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("parallel workers=%d every=%d resume=%v: err = %v, want ErrBadCheckpoint",
					workers, ck.Every, ck.Resume != nil, err)
			}
		}
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

package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/lrat"
	"repro/internal/proof"
	"repro/internal/sched"
)

// Emission round-trip: every (instance, mode, engine) combination must record
// an LRAT proof the propagation-free checker accepts — that is the whole
// point of the hint-order invariant (bcp/hints.go).

func TestVerifyEmitsCheckableLRAT(t *testing.T) {
	for _, inst := range diffInstances() {
		tr := solveTrace(t, inst)
		for _, mode := range []Mode{ModeCheckMarked, ModeCheckAll} {
			for _, engine := range []EngineKind{EngineWatched, EngineCounting} {
				name := fmt.Sprintf("%s/%v/%v", inst.Name, mode, engine)
				var rec lrat.Recorder
				res, err := Verify(inst.F, tr, Options{Mode: mode, Engine: engine, Hints: &rec})
				if err != nil || !res.OK {
					t.Fatalf("%s: err=%v res=%+v", name, err, res)
				}
				lp, err := rec.Proof()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(lp.Steps[len(lp.Steps)-1].C) != 0 {
					t.Fatalf("%s: emitted proof does not end in the empty clause", name)
				}
				// The DAG-scheduled check is the recheck dpv -sched dag runs.
				for _, o := range []lrat.Options{
					{Workers: 1},
					{Workers: 4, Strategy: sched.StrategyDAG},
				} {
					cres, err := lrat.Check(inst.F, lp, o)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !cres.OK {
						t.Errorf("%s workers=%d strategy=%v: emitted LRAT rejected at step %d: %s",
							name, o.Workers, o.Strategy, cres.FailedStep, cres.Reason)
					}
				}
			}
		}
	}
}

func TestVerifyEmitsCheckableLRATEmptyClauseTermination(t *testing.T) {
	inst := gen.PHP(4)
	tr := cloneTrace(solveTrace(t, inst))
	// Turn the final-pair trace into an empty-clause one: the pair is live,
	// so the empty clause is RUP at the root.
	tr.Append(cnf.Clause{}, 0)
	if tr.Terminates() != proof.TermEmptyClause {
		t.Fatal("fixture did not terminate in the empty clause")
	}
	var rec lrat.Recorder
	res, err := Verify(inst.F, tr, Options{Hints: &rec})
	if err != nil || !res.OK {
		t.Fatalf("err=%v res=%+v", err, res)
	}
	lp, err := rec.Proof()
	if err != nil {
		t.Fatal(err)
	}
	cres, err := lrat.Check(inst.F, lp, lrat.Options{})
	if err != nil || !cres.OK {
		t.Fatalf("emitted LRAT rejected: err=%v res=%+v", err, cres)
	}
}

func emittedLRAT(t *testing.T, rec *lrat.Recorder) []byte {
	t.Helper()
	lp, err := rec.Proof()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lrat.Write(&buf, lp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestVerifyResumeEmitsIdenticalLRAT(t *testing.T) {
	inst := gen.PHP(5)
	tr := solveTrace(t, inst)

	const every = 16
	var records [][]byte
	var rec lrat.Recorder
	res, err := Verify(inst.F, tr, Options{
		Hints: &rec,
		Checkpoint: CheckpointConfig{
			Every: every,
			Sink: func(b []byte) error {
				records = append(records, append([]byte(nil), b...))
				return nil
			},
		},
	})
	if err != nil || !res.OK {
		t.Fatalf("uninterrupted: err=%v res=%+v", err, res)
	}
	if len(records) == 0 {
		t.Fatal("no checkpoint records written")
	}
	want := emittedLRAT(t, &rec)

	for k, r := range records {
		cp, err := DecodeCheckpoint(r)
		if err != nil {
			t.Fatalf("record %d: %v", k, err)
		}
		var recC lrat.Recorder
		resC, err := Verify(inst.F, tr, Options{
			Hints:      &recC,
			Checkpoint: CheckpointConfig{Every: every, Resume: cp},
		})
		if err != nil || !resC.OK {
			t.Fatalf("resume from record %d: err=%v res=%+v", k, err, resC)
		}
		if got := emittedLRAT(t, &recC); !bytes.Equal(got, want) {
			t.Fatalf("resume from record %d emitted different LRAT (%d vs %d bytes)", k, len(got), len(want))
		}
	}
}

// TestTwoResumesFromOneLRATCheckpoint resumes two runs from one decoded
// hinted checkpoint. Both must emit the uninterrupted run's LRAT, and
// neither may write into the memory the checkpoint's recorder holds: the
// record is decoded from a buffer with a piece's worth of spare capacity
// behind it, which must still be zero after both runs.
func TestTwoResumesFromOneLRATCheckpoint(t *testing.T) {
	inst := gen.PHP(5)
	tr := solveTrace(t, inst)

	const every = 16
	var records [][]byte
	var rec lrat.Recorder
	res, err := Verify(inst.F, tr, Options{
		Hints: &rec,
		Checkpoint: CheckpointConfig{Every: every, Sink: func(b []byte) error {
			records = append(records, append([]byte(nil), b...))
			return nil
		}},
	})
	if err != nil || !res.OK || len(records) < 2 {
		t.Fatalf("uninterrupted: err=%v res=%+v records=%d", err, res, len(records))
	}
	want := emittedLRAT(t, &rec)

	r := records[len(records)/2]
	buf := append(make([]byte, 0, len(r)+64<<10), r...)
	cp, err := DecodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	for run := range 2 {
		var recC lrat.Recorder
		resC, err := Verify(inst.F, tr, Options{
			Hints:      &recC,
			Checkpoint: CheckpointConfig{Every: every, Resume: cp},
		})
		if err != nil || !resC.OK {
			t.Fatalf("resume %d: err=%v res=%+v", run, err, resC)
		}
		if got := emittedLRAT(t, &recC); !bytes.Equal(got, want) {
			t.Fatalf("resume %d emitted different LRAT (%d vs %d bytes)", run, len(got), len(want))
		}
	}
	if !bytes.Equal(cp.Encode(), r) {
		t.Fatal("the resumed runs changed the checkpoint")
	}
	if spare := buf[len(buf):cap(buf)]; !bytes.Equal(spare, make([]byte, len(spare))) {
		t.Fatal("a resumed run wrote into the checkpoint's buffer")
	}
}

func TestVerifyResumeWithoutRecordedHints(t *testing.T) {
	inst := gen.PHP(4)
	tr := solveTrace(t, inst)

	const every = 8
	var records [][]byte
	res, err := Verify(inst.F, tr, Options{
		Checkpoint: CheckpointConfig{
			Every: every,
			Sink: func(b []byte) error {
				records = append(records, append([]byte(nil), b...))
				return nil
			},
		},
	})
	if err != nil || !res.OK || len(records) == 0 {
		t.Fatalf("err=%v res=%+v records=%d", err, res, len(records))
	}
	cp, err := DecodeCheckpoint(records[0])
	if err != nil {
		t.Fatal(err)
	}
	var rec lrat.Recorder
	_, err = Verify(inst.F, tr, Options{
		Hints:      &rec,
		Checkpoint: CheckpointConfig{Every: every, Resume: cp},
	})
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("err=%v, want ErrBadCheckpoint", err)
	}
}

func TestVerifyParallelRejectsHints(t *testing.T) {
	inst := gen.PHP(4)
	tr := solveTrace(t, inst)
	// Workers 1 takes the sequential fallback, which must refuse too.
	for _, workers := range []int{1, 2, 4} {
		var rec lrat.Recorder
		if _, err := VerifyParallelOpts(inst.F, tr, Options{Hints: &rec}, workers); err == nil {
			t.Fatalf("workers=%d: parallel verification with hints not rejected", workers)
		}
	}
}

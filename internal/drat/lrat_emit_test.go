package drat

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lrat"
	"repro/internal/solver"
)

// solveDRUP records a real DRUP proof (with deletion lines) for inst.
func solveDRUP(t *testing.T, inst gen.Instance) *Proof {
	t.Helper()
	rec := NewRecorder()
	opts := solver.Options{
		MaxLearnedFactor: 0.1,
		RestartInterval:  30,
		OnLearn:          rec.Learn,
		OnDelete:         rec.Delete,
	}
	st, _, _, _, err := solver.Solve(inst.F, opts)
	if err != nil || st != solver.Unsat {
		t.Fatalf("%s: solve: %v %v", inst.Name, st, err)
	}
	return rec.Proof()
}

func TestBackwardEmitsCheckableLRAT(t *testing.T) {
	for _, inst := range []gen.Instance{gen.PHP(5), gen.RandUnsat(7, 16)} {
		p := solveDRUP(t, inst)
		var rec lrat.Recorder
		res, trimmed, _, err := VerifyBackward(inst.F, p, core.Options{Hints: &rec})
		if err != nil || !res.OK {
			t.Fatalf("%s: err=%v res=%+v", inst.Name, err, res)
		}
		lp, err := rec.Proof()
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		// One hinted step per trimmed addition plus the refutation — the
		// trimmed proof's final nil entry plays the same role, so the counts
		// match exactly.
		if lp.Additions() != trimmed.Len() {
			t.Errorf("%s: %d hinted steps for %d trimmed steps", inst.Name, lp.Additions(), trimmed.Len())
		}
		for _, workers := range []int{1, 4} {
			cres, err := lrat.Check(inst.F, lp, lrat.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", inst.Name, err)
			}
			if !cres.OK {
				t.Errorf("%s workers=%d: emitted LRAT rejected at step %d: %s",
					inst.Name, workers, cres.FailedStep, cres.Reason)
			}
		}
	}
}

// lratBytes renders a recorder's proof in the text format.
func lratBytes(t *testing.T, rec *lrat.Recorder) []byte {
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

func TestBackwardResumeEmitsIdenticalLRAT(t *testing.T) {
	inst := gen.PHP(6)
	p := solveDRUP(t, inst)
	if p.Deletions() == 0 {
		t.Fatal("want a proof with deletion lines")
	}

	const every = 16
	var records [][]byte
	var rec lrat.Recorder
	res, _, _, err := VerifyBackward(inst.F, p, core.Options{
		Hints: &rec,
		Checkpoint: core.CheckpointConfig{
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
	want := lratBytes(t, &rec)

	cres, err := lrat.Check(inst.F, mustRead(t, want), lrat.Options{})
	if err != nil || !cres.OK {
		t.Fatalf("emitted LRAT rejected: err=%v res=%+v", err, cres)
	}

	for k, r := range records {
		cp, err := core.DecodeCheckpoint(r)
		if err != nil {
			t.Fatalf("record %d: %v", k, err)
		}
		var recC lrat.Recorder
		resC, _, _, err := VerifyBackward(inst.F, p, core.Options{
			Hints:      &recC,
			Checkpoint: core.CheckpointConfig{Every: every, Resume: cp},
		})
		if err != nil || !resC.OK {
			t.Fatalf("resume from record %d: err=%v res=%+v", k, err, resC)
		}
		if got := lratBytes(t, &recC); !bytes.Equal(got, want) {
			t.Fatalf("resume from record %d emitted different LRAT (%d vs %d bytes)", k, len(got), len(want))
		}
	}
}

func mustRead(t *testing.T, b []byte) *lrat.Proof {
	t.Helper()
	lp, err := lrat.Read(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return lp
}

func TestBackwardResumeWithoutRecordedHints(t *testing.T) {
	inst := gen.PHP(4)
	p := solveDRUP(t, inst)

	const every = 8
	var records [][]byte
	res, _, _, err := VerifyBackward(inst.F, p, core.Options{Checkpoint: core.CheckpointConfig{
		Every: every,
		Sink: func(b []byte) error {
			records = append(records, append([]byte(nil), b...))
			return nil
		},
	}})
	if err != nil || !res.OK || len(records) == 0 {
		t.Fatalf("err=%v res=%+v records=%d", err, res, len(records))
	}
	cp, err := core.DecodeCheckpoint(records[0])
	if err != nil {
		t.Fatal(err)
	}
	var rec lrat.Recorder
	_, _, _, err = VerifyBackward(inst.F, p, core.Options{
		Hints:      &rec,
		Checkpoint: core.CheckpointConfig{Every: every, Resume: cp},
	})
	if !errors.Is(err, core.ErrBadCheckpoint) {
		t.Fatalf("err=%v, want core.ErrBadCheckpoint", err)
	}
}

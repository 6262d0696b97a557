package drat

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/solver"
)

func TestProofFingerprint(t *testing.T) {
	p := &Proof{}
	p.Add(cl(1, 2))
	p.Delete(cl(1, 2))
	p.Add(nil)
	q := &Proof{}
	q.Add(cl(1, 2))
	q.Add(cl(1, 2)) // same literals, different step kind
	q.Add(nil)
	if p.Fingerprint() == q.Fingerprint() {
		t.Fatal("deletion flag not fingerprinted")
	}
	r := &Proof{}
	r.Add(cl(1, 2))
	r.Delete(cl(1, 2))
	r.Add(nil)
	if p.Fingerprint() != r.Fingerprint() {
		t.Fatal("identical proofs fingerprint differently")
	}
}

// backwardFingerprint flattens everything a resumed run must reproduce:
// verdict, tallies, the trimmed proof bytes, and the core.
func backwardFingerprint(t *testing.T, res *Result, trimmed *Proof, coreIdx []int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, trimmed); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("ok=%v refuted=%v failed=%d adds=%d dels=%d taut=%d props=%d core=%v trim=%q",
		res.OK, res.Refuted, res.FailedStep, res.Additions, res.Deletions,
		res.Tautologies, res.Propagations, coreIdx, buf.String())
}

// TestBackwardResumeMatchesUninterrupted is the drat golden test: a
// checkpointed backward pass over a solver-recorded proof (with real
// deletion lines) is resumed from every record it wrote, and each resumed
// run must reproduce the verdict, trimmed proof, and core byte-for-byte.
// The records are core checkpoints, their interval counted in additions.
func TestBackwardResumeMatchesUninterrupted(t *testing.T) {
	inst := gen.PHP(6)
	rec := NewRecorder()
	opts := solver.Options{
		MaxLearnedFactor: 0.1,
		RestartInterval:  30,
		OnLearn:          rec.Learn,
		OnDelete:         rec.Delete,
	}
	if st, _, _, _, err := solver.Solve(inst.F, opts); err != nil || st != solver.Unsat {
		t.Fatalf("solve: %v %v", st, err)
	}
	p := rec.Proof()
	if p.Deletions() == 0 {
		t.Fatal("want a proof with deletion lines")
	}

	const every = 16
	var records [][]byte
	res, trimmed, coreIdx, err := VerifyBackward(inst.F, p, core.Options{Checkpoint: core.CheckpointConfig{
		Every: every,
		Sink: func(b []byte) error {
			records = append(records, append([]byte(nil), b...))
			return nil
		},
	}})
	if err != nil || !res.OK {
		t.Fatalf("uninterrupted: err=%v res=%+v", err, res)
	}
	if len(records) == 0 {
		t.Fatal("no checkpoint records written")
	}
	want := backwardFingerprint(t, res, trimmed, coreIdx)

	// The checkpointed run must agree with the plain run on the verdict.
	plain, _, _, err := VerifyBackward(inst.F, p, core.Options{})
	if err != nil || plain.OK != res.OK {
		t.Fatalf("plain run disagrees: err=%v ok=%v", err, plain.OK)
	}

	for k, rec := range records {
		cp, err := core.DecodeCheckpoint(rec)
		if err != nil {
			t.Fatalf("record %d: %v", k, err)
		}
		if got, want := len(cp.Marked), len(inst.F.Clauses)+p.TraceLen(); got != want {
			t.Fatalf("record %d: %d marked slots, want formula plus TraceLen = %d", k, got, want)
		}
		resC, trimC, coreC, err := VerifyBackward(inst.F, p,
			core.Options{Checkpoint: core.CheckpointConfig{Every: every, Resume: cp}})
		if err != nil {
			t.Fatalf("resume from record %d: %v", k, err)
		}
		if got := backwardFingerprint(t, resC, trimC, coreC); got != want {
			t.Fatalf("resume from record %d diverged:\n got %s\nwant %s", k, got, want)
		}
	}
}

func TestTraceLen(t *testing.T) {
	p := &Proof{}
	p.Add(cl(1))
	p.Delete(cl(1))
	p.Add(cl(-1))
	if got := p.TraceLen(); got != 3 {
		t.Errorf("proof without an empty clause: TraceLen = %d, want 3 (two additions, appended empty clause)", got)
	}
	p.Add(nil)
	p.Add(cl(2))
	if got := p.TraceLen(); got != 3 {
		t.Errorf("proof closed by an empty clause: TraceLen = %d, want 3 (steps after it are ignored)", got)
	}
}

func TestBackwardResumeRejectsMismatch(t *testing.T) {
	p := &Proof{}
	p.Add(cl(1))
	p.Add(cl(-1))
	p.Add(nil)
	f := chainFormula()
	cp := &core.Checkpoint{NextIndex: 99, Marked: make([]bool, 3)}
	ck := core.CheckpointConfig{Every: 2, Resume: cp}
	if _, _, _, err := VerifyBackward(f, p, core.Options{Checkpoint: ck}); !errors.Is(err, core.ErrBadCheckpoint) {
		t.Fatalf("err = %v, want core.ErrBadCheckpoint", err)
	}
	// Two additions and the empty clause: three trace slots after the formula.
	ok := &core.Checkpoint{NextIndex: 0, Marked: make([]bool, len(f.Clauses)+3)}
	ck = core.CheckpointConfig{Resume: ok}
	if _, _, _, err := VerifyBackward(f, p, core.Options{Checkpoint: ck}); !errors.Is(err, core.ErrBadCheckpoint) {
		t.Fatalf("resume without interval: err = %v, want core.ErrBadCheckpoint", err)
	}
}

// chainInstance builds an implication chain x1, xi→xi+1, ¬xn whose DRUP
// proof derives every unit in order — long enough to cross many checkpoint
// boundaries without a solver run.
func chainInstance(n int) (*cnf.Formula, *Proof) {
	f := cnf.NewFormula(n).Add(1)
	for i := 1; i < n; i++ {
		f.Add(-i, i+1)
	}
	f.Add(-n)
	p := &Proof{}
	for i := 2; i <= n; i++ {
		p.Add(cl(i))
	}
	p.Add(nil)
	return f, p
}

func TestBackwardSinkErrorStops(t *testing.T) {
	f, p := chainInstance(40)
	sinkErr := errors.New("disk full")
	_, _, _, err := VerifyBackward(f, p, core.Options{Checkpoint: core.CheckpointConfig{
		Every: 4, Sink: func([]byte) error { return sinkErr }}})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want wrapped sink error", err)
	}
}

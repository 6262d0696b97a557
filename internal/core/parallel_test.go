package core

import (
	"errors"
	"testing"

	"repro/internal/cnf"
	"repro/internal/proof"
)

func TestVerifyParallelAcceptsValidProof(t *testing.T) {
	f, tr := chainFormula()
	for _, workers := range []int{0, 1, 2, 4, 16} {
		res, err := VerifyParallelOpts(f, tr, Options{}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.OK {
			t.Fatalf("workers=%d: rejected at %d", workers, res.FailedIndex)
		}
		if res.Tested != tr.Len() {
			t.Errorf("workers=%d: tested %d of %d", workers, res.Tested, tr.Len())
		}
	}
}

func TestVerifyParallelAgreesWithSequential(t *testing.T) {
	// A longer synthetic proof: chain of implied clauses on the pigeonhole
	// formula produced by construction here would need the solver; instead
	// build a padded proof over the chain formula.
	f, base := chainFormula()
	tr := proof.New()
	tr.Append(cl(1, 3), 0)
	tr.Append(cl(1, -3), 0)
	tr.Append(cl(-1, 2), 0)
	tr.Append(base.Clauses[0], 0)
	tr.Append(base.Clauses[1], 0)
	seq, err := Verify(f, tr, Options{Mode: ModeCheckAll})
	if err != nil {
		t.Fatal(err)
	}
	par, err := VerifyParallelOpts(f, tr, Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if seq.OK != par.OK || seq.Tested != par.Tested {
		t.Errorf("sequential %+v vs parallel %+v", seq, par)
	}
}

func TestVerifyParallelRejectsBadClause(t *testing.T) {
	f, base := chainFormula()
	tr := proof.New()
	tr.Append(cl(9), 0) // fresh var: not RUP
	tr.Append(base.Clauses[0], 0)
	tr.Append(base.Clauses[1], 0)
	for _, workers := range []int{1, 2, 8} {
		res, err := VerifyParallelOpts(f, tr, Options{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.OK {
			t.Fatalf("workers=%d: accepted bad proof", workers)
		}
		if res.FailedIndex != 0 {
			t.Errorf("workers=%d: FailedIndex=%d, want 0", workers, res.FailedIndex)
		}
		if len(res.FailedClause) != 1 {
			t.Errorf("workers=%d: FailedClause=%v", workers, res.FailedClause)
		}
	}
}

func TestVerifyParallelBadTermination(t *testing.T) {
	f := cnf.NewFormula(0).Add(1)
	tr := proof.New()
	tr.Append(cl(1, 2), 0)
	_, err := VerifyParallelOpts(f, tr, Options{}, 2)
	if err == nil {
		t.Fatal("bad termination accepted")
	}
	if !errors.Is(err, ErrBadTrace) {
		t.Errorf("error %v does not unwrap to ErrBadTrace", err)
	}
}

func TestVerifyParallelCountingEngine(t *testing.T) {
	f, tr := chainFormula()
	res, err := VerifyParallelOpts(f, tr, Options{Engine: EngineCounting}, 2)
	if err != nil || !res.OK {
		t.Fatalf("%v %+v", err, res)
	}
}

package solver

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
)

func lits(dimacs ...int) cnf.Clause {
	c := make(cnf.Clause, 0, len(dimacs))
	for _, d := range dimacs {
		c = append(c, cnf.FromDimacs(d))
	}
	return c
}

func TestIncrementalAddClause(t *testing.T) {
	f := cnf.NewFormula(0).Add(1, 2)
	s := NewFromFormula(f, Options{DisableProof: true})
	if st := s.Run(); st != Sat {
		t.Fatalf("status %v", st)
	}
	// Add clauses one at a time, tightening to UNSAT.
	for _, c := range []cnf.Clause{lits(1, -2), lits(-1, 3), lits(-1, -3)} {
		if err := s.AddClause(c); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Run(); st != Unsat {
		t.Fatalf("status %v after tightening", st)
	}
	// Further additions are no-ops on an UNSAT solver.
	if err := s.AddClause(lits(5)); err != nil {
		t.Fatal(err)
	}
	if st := s.Run(); st != Unsat {
		t.Fatal("lost unsatisfiability")
	}
}

func TestIncrementalAddClauseWithProof(t *testing.T) {
	// With proof logging, additions are allowed until learning starts; the
	// eventual proof must verify against the final clause set.
	f := cnf.NewFormula(3)
	s := NewFromFormula(f, Options{})
	full := cnf.NewFormula(3)
	for _, c := range []cnf.Clause{lits(1, 2), lits(1, -2), lits(-1, 3), lits(-1, -3)} {
		if err := s.AddClause(c); err != nil {
			t.Fatal(err)
		}
		full.AddClause(c)
	}
	if st := s.Run(); st != Unsat {
		t.Fatalf("status %v", st)
	}
	res, err := core.Verify(full, s.Trace(), core.Options{Mode: core.ModeCheckAll})
	if err != nil || !res.OK {
		t.Fatalf("proof rejected: %v %+v", err, res)
	}
}

func TestIncrementalAddClauseAfterLearningRejected(t *testing.T) {
	inst := php(4)
	s := NewFromFormula(inst, Options{})
	s.Run()
	if s.Stats().Learned == 0 {
		t.Skip("no clauses learned")
	}
	if err := s.AddClause(lits(1)); err == nil {
		t.Error("AddClause accepted after learning with proof logging on")
	}
}

func TestIncrementalAddUnitAndConflict(t *testing.T) {
	s := New(2, Options{DisableProof: true})
	if err := s.AddClause(lits(1)); err != nil {
		t.Fatal(err)
	}
	if st := s.Run(); st != Sat {
		t.Fatalf("status %v", st)
	}
	if err := s.AddClause(lits(-1)); err != nil {
		t.Fatal(err)
	}
	if st := s.Run(); st != Unsat {
		t.Fatalf("status %v after contradictory unit", st)
	}
}

func TestIncrementalAddFalsifiedClause(t *testing.T) {
	// After level-0 propagation fixes x1 and x2, adding (¬x1 ¬x2) is
	// falsified outright; the solver must flip to UNSAT with a proper
	// final conflicting pair.
	s := New(2, Options{})
	if err := s.AddClause(lits(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClause(lits(2)); err != nil {
		t.Fatal(err)
	}
	if st := s.Run(); st != Sat {
		t.Fatalf("status %v", st)
	}
	if err := s.AddClause(lits(-1, -2)); err != nil {
		t.Fatal(err)
	}
	if st := s.Run(); st != Unsat {
		t.Fatalf("status %v", st)
	}
	full := cnf.NewFormula(0).Add(1).Add(2).Add(-1, -2)
	res, err := core.Verify(full, s.Trace(), core.Options{Mode: core.ModeCheckAll})
	if err != nil || !res.OK {
		t.Fatalf("proof rejected: %v %+v", err, res)
	}
}

func TestIncrementalAddGrowsVars(t *testing.T) {
	s := New(1, Options{DisableProof: true})
	if err := s.AddClause(lits(30, -31)); err != nil {
		t.Fatal(err)
	}
	if st := s.Run(); st != Sat {
		t.Fatalf("status %v", st)
	}
}

func TestIncrementalUnitUnderAssignment(t *testing.T) {
	// (x1) forces x1; adding (¬x1 x2) is unit under the level-0 assignment
	// and must immediately imply x2.
	s := New(2, Options{DisableProof: true})
	if err := s.AddClause(lits(1)); err != nil {
		t.Fatal(err)
	}
	if st := s.Run(); st != Sat {
		t.Fatal("not sat")
	}
	if err := s.AddClause(lits(-1, 2)); err != nil {
		t.Fatal(err)
	}
	if st := s.RunAssuming([]cnf.Lit{cnf.FromDimacs(-2)}); st != UnsatAssumptions {
		t.Fatalf("status %v, want UnsatAssumptions (x2 is forced)", st)
	}
}

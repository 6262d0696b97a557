package solver

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

func TestRunAssumingSat(t *testing.T) {
	f := cnf.NewFormula(0).Add(1, 2).Add(-1, 3)
	s := NewFromFormula(f, Options{})
	st := s.RunAssuming([]cnf.Lit{cnf.FromDimacs(1), cnf.FromDimacs(-2)})
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	m := s.Model()
	if !m[0] || m[1] {
		t.Errorf("assumptions not honored: %v", m)
	}
	if !f.Eval(m) {
		t.Error("model does not satisfy formula")
	}
}

func TestRunAssumingUnsatAssumptions(t *testing.T) {
	// F = (x1 -> x2), assume x1 and ~x2.
	f := cnf.NewFormula(0).Add(-1, 2)
	s := NewFromFormula(f, Options{})
	st := s.RunAssuming([]cnf.Lit{cnf.FromDimacs(1), cnf.FromDimacs(-2)})
	if st != UnsatAssumptions {
		t.Fatalf("status %v", st)
	}
	sub := s.ConflictSubset()
	if len(sub) == 0 || len(sub) > 2 {
		t.Fatalf("conflict subset %v", sub)
	}
}

func TestRunAssumingContradictoryAssumptions(t *testing.T) {
	f := cnf.NewFormula(0).Add(1, 2)
	s := NewFromFormula(f, Options{})
	st := s.RunAssuming([]cnf.Lit{cnf.FromDimacs(3), cnf.FromDimacs(-3)})
	if st != UnsatAssumptions {
		t.Fatalf("status %v", st)
	}
	sub := s.ConflictSubset()
	if len(sub) != 2 {
		t.Fatalf("conflict subset %v, want both polarities of x3", sub)
	}
}

func TestRunAssumingRealUnsatWins(t *testing.T) {
	f := cnf.NewFormula(0).
		Add(1, 2).Add(1, -2).Add(-1, 3).Add(-1, -3)
	s := NewFromFormula(f, Options{})
	st := s.RunAssuming([]cnf.Lit{cnf.FromDimacs(1)})
	if st != Unsat {
		t.Fatalf("status %v, want plain Unsat (formula is unsat regardless)", st)
	}
	if s.Trace().Terminates() == 0 {
		t.Error("no proof termination")
	}
}

func TestRunAssumingRepeatedCalls(t *testing.T) {
	f := cnf.NewFormula(0).Add(1, 2).Add(-1, 2).Add(1, -2).Add(-1, -2)
	s := NewFromFormula(f, Options{})
	// Formula is UNSAT; first a query that detects it via assumptions or
	// outright, then repeated calls must stay Unsat and not corrupt state.
	first := s.RunAssuming(nil)
	if first != Unsat {
		t.Fatalf("status %v", first)
	}
	n := s.Trace().Len()
	if st := s.RunAssuming(nil); st != Unsat {
		t.Fatalf("second call: %v", st)
	}
	if s.Trace().Len() != n {
		t.Error("second call grew the proof trace")
	}
}

// TestConflictSubsetSound checks, on random satisfiable formulas with
// random assumption sets, that a reported conflict subset really makes the
// formula unsatisfiable (by brute force).
func TestConflictSubsetSound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	checked := 0
	for round := 0; round < 300; round++ {
		nVars := 4 + rng.Intn(5)
		f := cnf.NewFormula(nVars)
		for i := 0; i < nVars*2; i++ {
			k := 2 + rng.Intn(2)
			c := make(cnf.Clause, 0, k)
			for j := 0; j < k; j++ {
				c = append(c, cnf.NewLit(cnf.Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			f.AddClause(c)
		}
		var assumps []cnf.Lit
		seen := map[cnf.Var]bool{}
		for j := 0; j < 1+rng.Intn(nVars); j++ {
			v := cnf.Var(rng.Intn(nVars))
			if seen[v] {
				continue
			}
			seen[v] = true
			assumps = append(assumps, cnf.NewLit(v, rng.Intn(2) == 0))
		}
		s := NewFromFormula(f, Options{})
		if s.RunAssuming(assumps) != UnsatAssumptions {
			continue
		}
		checked++
		sub := s.ConflictSubset()
		// Brute force: no assignment satisfies f while agreeing with sub.
		g := f.Clone()
		for _, l := range sub {
			g.AddClause(cnf.Clause{l})
		}
		for m := 0; m < 1<<nVars; m++ {
			assign := make([]bool, nVars)
			for i := range assign {
				assign[i] = m&(1<<i) != 0
			}
			if g.Eval(assign) {
				t.Fatalf("round %d: conflict subset %v is satisfiable with %v\n%v",
					round, sub, assign, f)
			}
		}
		// The subset must be a subset of the assumptions.
		for _, l := range sub {
			found := false
			for _, a := range assumps {
				if a == l {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("round %d: %v not among assumptions %v", round, l, assumps)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d UnsatAssumptions cases exercised", checked)
	}
}

func TestAssumptionsWithRestarts(t *testing.T) {
	// Force restarts while assumptions are active; they must be
	// re-established and the result stay correct.
	f := cnf.NewFormula(0)
	// A moderately hard satisfiable formula.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 80; i++ {
		c := make(cnf.Clause, 0, 3)
		for j := 0; j < 3; j++ {
			c = append(c, cnf.NewLit(cnf.Var(rng.Intn(25)), rng.Intn(2) == 0))
		}
		f.AddClause(c)
	}
	s := NewFromFormula(f, Options{RestartInterval: 5})
	assumps := []cnf.Lit{cnf.FromDimacs(1), cnf.FromDimacs(-2), cnf.FromDimacs(3)}
	st := s.RunAssuming(assumps)
	if st == Sat {
		m := s.Model()
		if !m[0] || m[1] || !m[2] {
			t.Errorf("assumptions violated in model: %v", m[:3])
		}
		if !f.Eval(m) {
			t.Error("bogus model")
		}
	}
}

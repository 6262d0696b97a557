package solver

import (
	"testing"

	"repro/internal/cnf"
)

func TestNegativeIntervalDisablesRestarts(t *testing.T) {
	f := php(5)
	_, _, _, stats, err := Solve(f, Options{RestartInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Restarts != 0 {
		t.Errorf("%d restarts with negative interval", stats.Restarts)
	}
}

func TestGrowVarsViaAssumptions(t *testing.T) {
	f := cnf.NewFormula(0).Add(1, 2)
	s := NewFromFormula(f, Options{})
	st := s.RunAssuming([]cnf.Lit{cnf.FromDimacs(50)})
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	m := s.Model()
	if len(m) < 50 || !m[49] {
		t.Errorf("grown variable not assigned: len=%d", len(m))
	}
}

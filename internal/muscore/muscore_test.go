package muscore

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/solver"
)

func opts() solver.Options {
	return solver.Options{MaxConflicts: 500_000}
}

func bruteSat(f *cnf.Formula) bool {
	n := f.NumVars
	for m := 0; m < 1<<n; m++ {
		assign := make([]bool, n)
		for i := range assign {
			assign[i] = m&(1<<i) != 0
		}
		if f.Eval(assign) {
			return true
		}
	}
	return false
}

func TestExtractSimple(t *testing.T) {
	// 4 contradiction clauses + 2 junk clauses on fresh vars.
	f := cnf.NewFormula(0).
		Add(1, 2).Add(1, -2).Add(-1, 3).Add(-1, -3).
		Add(7, 8).Add(-7, 9)
	core, err := Extract(f, opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(core) == 0 || len(core) > 4 {
		t.Fatalf("core = %v", core)
	}
	for _, i := range core {
		if i >= 4 {
			t.Errorf("junk clause %d in core", i)
		}
	}
	// The core really is unsatisfiable.
	if bruteSat(f.Restrict(core)) {
		t.Errorf("core %v is satisfiable", core)
	}
}

func TestExtractSatisfiableErrors(t *testing.T) {
	f := cnf.NewFormula(0).Add(1, 2).Add(-1, 2)
	if _, err := Extract(f, opts()); err == nil {
		t.Error("satisfiable formula accepted")
	}
}

func TestMinimizeIsMinimal(t *testing.T) {
	// PHP(3) plus junk; the MUS must be unsatisfiable and genuinely
	// minimal: removing any clause makes it satisfiable.
	inst := gen.PHP(3)
	f := inst.F.Clone()
	base := f.NumVars
	f.Add(base+1, base+2).Add(-(base + 1), base+3)

	core, err := Extract(f, opts())
	if err != nil {
		t.Fatal(err)
	}
	mus, err := Minimize(f, core, opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(mus) == 0 || len(mus) > len(core) {
		t.Fatalf("mus = %v (core %v)", mus, core)
	}
	sub := f.Restrict(mus)
	if bruteSat(sub) {
		t.Fatalf("MUS %v is satisfiable", mus)
	}
	// Minimality: drop each clause in turn; the remainder must be SAT.
	for drop := range mus {
		var keep []int
		for j, i := range mus {
			if j != drop {
				keep = append(keep, i)
			}
		}
		if !bruteSat(f.Restrict(keep)) {
			t.Errorf("MUS not minimal: still UNSAT without clause %d", mus[drop])
		}
	}
}

func TestMinimizeXorChain(t *testing.T) {
	// The whole xor chain is already minimal; Minimize must return all of
	// it unchanged.
	inst := gen.XorChain(5)
	core, err := Extract(inst.F, opts())
	if err != nil {
		t.Fatal(err)
	}
	mus, err := Minimize(inst.F, core, opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(mus) != inst.F.NumClauses() {
		t.Errorf("MUS dropped clauses from a minimal formula: %d of %d",
			len(mus), inst.F.NumClauses())
	}
}

func TestExtractAgreesWithVerificationCore(t *testing.T) {
	// Both techniques must produce unsatisfiable subsets; sizes may differ.
	inst := gen.AdderEquiv(8)
	core, err := Extract(inst.F, opts())
	if err != nil {
		t.Fatal(err)
	}
	st, _, _, _, err := solver.Solve(inst.F.Restrict(core), opts())
	if err != nil {
		t.Fatal(err)
	}
	if st != solver.Unsat {
		t.Fatalf("assumption core is not UNSAT: %v", st)
	}
}

func TestIncrementalReuse(t *testing.T) {
	// The same solver instance answers a SAT query after an
	// UnsatAssumptions query (incrementality smoke test).
	f := cnf.NewFormula(0).Add(1, 2).Add(-1, 2).Add(1, -2).Add(-1, -2)
	inst := instrument(f)
	s := solver.NewFromFormula(inst, opts())
	all := make([]cnf.Lit, f.NumClauses())
	for i := range all {
		all[i] = selector(f, i)
	}
	if st := s.RunAssuming(all); st != solver.UnsatAssumptions {
		t.Fatalf("status %v", st)
	}
	if len(s.ConflictSubset()) == 0 {
		t.Fatal("empty conflict subset")
	}
	// Dropping one clause makes it satisfiable.
	if st := s.RunAssuming(all[:3]); st != solver.Sat {
		t.Fatalf("status %v after dropping a clause", st)
	}
}

package resolution

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/proof"
	"repro/internal/solver"
)

func cl(dimacs ...int) cnf.Clause {
	c := make(cnf.Clause, 0, len(dimacs))
	for _, d := range dimacs {
		c = append(c, cnf.FromDimacs(d))
	}
	return c
}

// handProof builds the classic 4-clause refutation:
//
//	(1 2) (1 -2) (-1 3) (-1 -3)
//	chain [(1 2),(1 -2)] -> (1)
//	chain [(-1 3),(-1 -3)] -> (-1)
//	chain [(1),(-1)] -> ()
func handProof() *Proof {
	return &Proof{
		Sources: []cnf.Clause{cl(1, 2), cl(1, -2), cl(-1, 3), cl(-1, -3)},
		Chains:  [][]int{{0, 1}, {2, 3}, {4, 5}},
	}
}

func TestVerifyHandProof(t *testing.T) {
	p := handProof()
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if p.InternalNodes() != 3 {
		t.Errorf("InternalNodes = %d, want 3", p.InternalNodes())
	}
	if p.TotalNodes() != 7 {
		t.Errorf("TotalNodes = %d, want 7", p.TotalNodes())
	}
}

func TestVerifyWithExpected(t *testing.T) {
	p := handProof()
	p.Expected = []cnf.Clause{cl(1), cl(-1), {}}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	p.Expected[0] = cl(2)
	if err := p.Verify(); err == nil {
		t.Error("wrong expected clause accepted")
	}
}

func TestVerifyRejectsNoClash(t *testing.T) {
	p := &Proof{
		Sources: []cnf.Clause{cl(1, 2), cl(1, 3)},
		Chains:  [][]int{{0, 1}},
	}
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "clash") {
		t.Errorf("err = %v", err)
	}
}

func TestVerifyRejectsDoubleClash(t *testing.T) {
	p := &Proof{
		Sources: []cnf.Clause{cl(1, 2), cl(-1, -2)},
		Chains:  [][]int{{0, 1}},
	}
	if err := p.Verify(); err == nil {
		t.Error("double clash accepted")
	}
}

func TestVerifyRejectsNonEmptySink(t *testing.T) {
	p := &Proof{
		Sources: []cnf.Clause{cl(1, 2), cl(-1, 3)},
		Chains:  [][]int{{0, 1}},
	}
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "sink") {
		t.Errorf("err = %v", err)
	}
}

func TestVerifyRejectsForwardReference(t *testing.T) {
	p := handProof()
	p.Chains[0] = []int{0, 6} // references a node derived later
	if err := p.Verify(); err == nil {
		t.Error("forward reference accepted")
	}
}

func TestVerifyRejectsEmptyChain(t *testing.T) {
	p := handProof()
	p.Chains[0] = nil
	if err := p.Verify(); err == nil {
		t.Error("empty chain accepted")
	}
}

func TestCopyChainForEmptySource(t *testing.T) {
	p := &Proof{
		Sources: []cnf.Clause{{}},
		Chains:  [][]int{{0}},
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if p.InternalNodes() != 0 {
		t.Errorf("InternalNodes = %d", p.InternalNodes())
	}
}

func TestDerivedClause(t *testing.T) {
	p := handProof()
	got, err := p.DerivedClause(0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameLits(cl(1)) {
		t.Errorf("DerivedClause(0) = %v, want (1)", got)
	}
	empty, err := p.DerivedClause(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Errorf("DerivedClause(2) = %v, want empty", empty)
	}
}

// php builds the pigeonhole formula (duplicated from the solver tests to
// keep packages independent).
func php(n int) *cnf.Formula {
	f := cnf.NewFormula((n + 1) * n)
	v := func(p, h int) cnf.Var { return cnf.Var(p*n + h) }
	for p := 0; p <= n; p++ {
		c := make(cnf.Clause, 0, n)
		for h := 0; h < n; h++ {
			c = append(c, cnf.PosLit(v(p, h)))
		}
		f.AddClause(c)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				f.AddClause(cnf.Clause{cnf.NegLit(v(p1, h)), cnf.NegLit(v(p2, h))})
			}
		}
	}
	return f
}

// TestSolverChainsFormValidResolutionProof is the keystone integration test:
// the solver's recorded chains, expanded, must be an exact resolution-graph
// proof deriving precisely the clauses of the conflict-clause trace.
func TestSolverChainsFormValidResolutionProof(t *testing.T) {
	for _, scheme := range []solver.LearnScheme{solver.Learn1UIP, solver.LearnDecision, solver.LearnHybrid} {
		for n := 2; n <= 4; n++ {
			f := php(n)
			s := solver.NewFromFormula(f, solver.Options{Learn: scheme, RecordChains: true})
			if st := s.Run(); st != solver.Unsat {
				t.Fatalf("php(%d): status %v", n, st)
			}
			rp, err := FromSolverRun(f, s.Trace(), s.Chains())
			if err != nil {
				t.Fatal(err)
			}
			if err := rp.Verify(); err != nil {
				t.Fatalf("php(%d) scheme %v: %v", n, scheme, err)
			}
			// Internal node count must match the trace's resolution count
			// plus the final pair resolution.
			want := s.Trace().TotalResolutions() + 1
			if got := rp.InternalNodes(); got != want {
				t.Errorf("php(%d) scheme %v: InternalNodes = %d, want %d", n, scheme, got, want)
			}
		}
	}
}

func TestSolverChainsOnRandomUnsat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for round := 0; round < 200 && checked < 40; round++ {
		nVars := 4 + rng.Intn(6)
		f := cnf.NewFormula(nVars)
		for i := 0; i < nVars*5; i++ {
			c := make(cnf.Clause, 0, 3)
			for j := 0; j < 3; j++ {
				c = append(c, cnf.NewLit(cnf.Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			f.AddClause(c)
		}
		s := solver.NewFromFormula(f, solver.Options{RecordChains: true})
		if s.Run() != solver.Unsat {
			continue
		}
		checked++
		rp, err := FromSolverRun(f, s.Trace(), s.Chains())
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.Verify(); err != nil {
			t.Fatalf("round %d: %v\nformula:\n%v", round, err, f)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d UNSAT instances checked", checked)
	}
}

func TestFromSolverRunRequiresChains(t *testing.T) {
	f := php(2)
	s := solver.NewFromFormula(f, solver.Options{})
	s.Run()
	if _, err := FromSolverRun(f, s.Trace(), s.Chains()); err == nil {
		t.Error("missing chains accepted")
	}
}

func TestFromSolverRunEmptyClauseInput(t *testing.T) {
	f := cnf.NewFormula(1)
	f.AddClause(cnf.Clause{})
	s := solver.NewFromFormula(f, solver.Options{RecordChains: true})
	if s.Run() != solver.Unsat {
		t.Fatal("not unsat")
	}
	rp, err := FromSolverRun(f, s.Trace(), s.Chains())
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Verify(); err != nil {
		t.Fatal(err)
	}
	_ = proof.TermEmptyClause
}

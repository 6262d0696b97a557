package solver

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/proof"
)

// php builds the pigeonhole formula PHP(n): n+1 pigeons in n holes, UNSAT.
// Variable p*n + h means "pigeon p sits in hole h".
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

// randomCNF builds a random k-SAT instance.
func randomCNF(rng *rand.Rand, nVars, nClauses, k int) *cnf.Formula {
	f := cnf.NewFormula(nVars)
	for i := 0; i < nClauses; i++ {
		c := make(cnf.Clause, 0, k)
		for j := 0; j < k; j++ {
			c = append(c, cnf.NewLit(cnf.Var(rng.Intn(nVars)), rng.Intn(2) == 0))
		}
		f.AddClause(c)
	}
	return f
}

// bruteForceSat decides satisfiability exhaustively (for tiny formulas).
func bruteForceSat(f *cnf.Formula) bool {
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

func allSchemes() []Options {
	return []Options{
		{Learn: Learn1UIP, Heuristic: HeurVSIDS},
		{Learn: Learn1UIP, Heuristic: HeurBerkMin},
		{Learn: LearnDecision, Heuristic: HeurBerkMin},
		{Learn: LearnHybrid, Heuristic: HeurBerkMin},
	}
}

func TestSolveTrivialSat(t *testing.T) {
	f := cnf.NewFormula(0).Add(1, 2).Add(-1, 2).Add(1, -2)
	st, _, model, _, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st != Sat {
		t.Fatalf("status = %v", st)
	}
	if !f.Eval(model) {
		t.Fatalf("model %v does not satisfy the formula", model)
	}
}

func TestSolveTrivialUnsat(t *testing.T) {
	f := cnf.NewFormula(0).
		Add(1, 2).Add(1, -2).Add(-1, 3).Add(-1, -3)
	for _, opts := range allSchemes() {
		st, tr, _, _, err := Solve(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st != Unsat {
			t.Fatalf("%v/%v: status = %v", opts.Learn, opts.Heuristic, st)
		}
		if tr.Terminates() != proof.TermFinalPair {
			t.Fatalf("%v: trace termination = %v", opts.Learn, tr.Terminates())
		}
		res, err := core.Verify(f, tr, core.Options{Mode: core.ModeCheckAll})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("%v/%v: proof rejected at clause %d: %v",
				opts.Learn, opts.Heuristic, res.FailedIndex, res.FailedClause)
		}
	}
}

func TestSolveEmptyClause(t *testing.T) {
	f := cnf.NewFormula(2)
	f.Add(1, 2)
	f.AddClause(cnf.Clause{})
	st, tr, _, _, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st != Unsat {
		t.Fatalf("status = %v", st)
	}
	if tr.Terminates() != proof.TermEmptyClause {
		t.Fatalf("termination = %v", tr.Terminates())
	}
	res, err := core.Verify(f, tr, core.Options{})
	if err != nil || !res.OK {
		t.Fatalf("verification: %v, %+v", err, res)
	}
}

func TestSolveContradictoryUnits(t *testing.T) {
	f := cnf.NewFormula(0).Add(1).Add(-1)
	st, tr, _, _, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st != Unsat {
		t.Fatalf("status = %v", st)
	}
	if tr.Terminates() != proof.TermFinalPair {
		t.Fatalf("termination = %v (trace %v)", tr.Terminates(), tr.Clauses)
	}
	res, err := core.Verify(f, tr, core.Options{Mode: core.ModeCheckAll})
	if err != nil || !res.OK {
		t.Fatalf("verification: %v, %+v", err, res)
	}
}

func TestSolveUnitChainUnsat(t *testing.T) {
	f := cnf.NewFormula(0).Add(1).Add(-1, 2).Add(-2, 3).Add(-3)
	st, tr, _, _, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st != Unsat {
		t.Fatalf("status = %v", st)
	}
	res, err := core.Verify(f, tr, core.Options{Mode: core.ModeCheckAll})
	if err != nil || !res.OK {
		t.Fatalf("verification: %v, %+v", err, res)
	}
}

func TestSolvePigeonhole(t *testing.T) {
	for n := 2; n <= 5; n++ {
		f := php(n)
		for _, opts := range allSchemes() {
			st, tr, _, stats, err := Solve(f, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st != Unsat {
				t.Fatalf("php(%d) %v/%v: status = %v", n, opts.Learn, opts.Heuristic, st)
			}
			res, err := core.Verify(f, tr, core.Options{Mode: core.ModeCheckMarked})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK {
				t.Fatalf("php(%d) %v/%v: proof rejected at %d (conflicts=%d)",
					n, opts.Learn, opts.Heuristic, res.FailedIndex, stats.Conflicts)
			}
			// Every original clause of PHP is in its (only) unsat core...
			// not exactly true for the core found, but the core must be
			// nonempty and within range.
			if len(res.Core) == 0 || len(res.Core) > f.NumClauses() {
				t.Errorf("php(%d): core size %d out of range", n, len(res.Core))
			}
		}
	}
}

func TestSolveRandomBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sat, unsat := 0, 0
	for round := 0; round < 400; round++ {
		nVars := 4 + rng.Intn(8)
		nClauses := nVars * (3 + rng.Intn(3))
		f := randomCNF(rng, nVars, nClauses, 3)
		want := bruteForceSat(f)
		opts := allSchemes()[round%len(allSchemes())]
		st, tr, model, _, err := Solve(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		switch st {
		case Sat:
			if !want {
				t.Fatalf("round %d: solver says SAT, brute force says UNSAT\n%v", round, f)
			}
			if !f.Eval(model) {
				t.Fatalf("round %d: bogus model", round)
			}
			sat++
		case Unsat:
			if want {
				t.Fatalf("round %d: solver says UNSAT, brute force says SAT\n%v", round, f)
			}
			res, err := core.Verify(f, tr, core.Options{Mode: core.ModeCheckAll})
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if !res.OK {
				t.Fatalf("round %d: proof rejected at %d\n%v", round, res.FailedIndex, f)
			}
			unsat++
		default:
			t.Fatalf("round %d: unexpected status", round)
		}
	}
	if sat == 0 || unsat == 0 {
		t.Fatalf("weak test coverage: sat=%d unsat=%d", sat, unsat)
	}
}

func TestSolveRestartsAndReduction(t *testing.T) {
	// A formula hard enough to trigger restarts and DB reduction with tiny
	// thresholds.
	f := php(5)
	opts := Options{RestartInterval: 20, MaxLearnedFactor: 0.05}
	st, tr, _, stats, err := Solve(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st != Unsat {
		t.Fatalf("status = %v", st)
	}
	if stats.Restarts == 0 {
		t.Error("no restarts with interval 20")
	}
	if stats.Deleted == 0 {
		t.Error("no clause deletion with factor 0.05")
	}
	res, err := core.Verify(f, tr, core.Options{Mode: core.ModeCheckMarked})
	if err != nil || !res.OK {
		t.Fatalf("proof after restarts+deletion rejected: %v %+v", err, res)
	}
}

func TestSolveMaxConflicts(t *testing.T) {
	f := php(7)
	st, _, _, stats, err := Solve(f, Options{MaxConflicts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st != Unknown {
		t.Fatalf("status = %v, want Unknown", st)
	}
	if stats.Conflicts < 5 {
		t.Errorf("Conflicts = %d", stats.Conflicts)
	}
}

func TestProofStreaming(t *testing.T) {
	f := php(3)
	var buf bytes.Buffer
	st, tr, _, _, err := Solve(f, Options{ProofWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if st != Unsat {
		t.Fatalf("status = %v", st)
	}
	streamed, err := proof.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Len() != tr.Len() {
		t.Fatalf("streamed %d clauses, trace has %d", streamed.Len(), tr.Len())
	}
	for i := range tr.Clauses {
		if !streamed.Clauses[i].Equal(tr.Clauses[i]) {
			t.Fatalf("clause %d differs: %v vs %v", i, streamed.Clauses[i], tr.Clauses[i])
		}
	}
	// The streamed proof verifies too.
	res, err := core.Verify(f, streamed, core.Options{})
	if err != nil || !res.OK {
		t.Fatalf("streamed proof rejected: %v %+v", err, res)
	}
}

func TestResolutionCountsPositive(t *testing.T) {
	f := php(4)
	_, tr, _, stats, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resolutions == 0 {
		t.Error("no resolutions counted")
	}
	if tr.TotalResolutions() != stats.Resolutions {
		t.Errorf("trace resolutions %d != stats %d", tr.TotalResolutions(), stats.Resolutions)
	}
}

func TestDecisionSchemeIsMoreGlobal(t *testing.T) {
	// The paper's §5: decision-scheme ("global") clauses need more
	// resolutions per clause than 1UIP ("local") clauses on average.
	f := php(5)
	_, tr1, _, _, err := Solve(f, Options{Learn: Learn1UIP})
	if err != nil {
		t.Fatal(err)
	}
	_, trD, _, _, err := Solve(f, Options{Learn: LearnDecision})
	if err != nil {
		t.Fatal(err)
	}
	avg1 := float64(tr1.TotalResolutions()) / float64(tr1.Len())
	avgD := float64(trD.TotalResolutions()) / float64(trD.Len())
	if avgD <= avg1 {
		t.Errorf("decision scheme avg resolutions %.1f <= 1UIP %.1f", avgD, avg1)
	}
}

func TestSatisfiableWithAllHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := randomCNF(rng, 30, 60, 3) // under-constrained: almost surely SAT
	for _, opts := range allSchemes() {
		st, _, model, _, err := Solve(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st == Sat && !f.Eval(model) {
			t.Fatalf("%v/%v: bogus model", opts.Learn, opts.Heuristic)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	f := php(4)
	_, _, _, stats, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Conflicts == 0 || stats.Decisions == 0 || stats.Propagations == 0 ||
		stats.Learned == 0 || stats.LearnedLits == 0 || stats.MaxTrail == 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
}

func TestTautologyInInputIgnored(t *testing.T) {
	f := cnf.NewFormula(0).
		Add(1, -1). // tautology
		Add(1, 2).Add(1, -2).Add(-1, 3).Add(-1, -3)
	st, tr, _, _, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st != Unsat {
		t.Fatalf("status = %v", st)
	}
	res, err := core.Verify(f, tr, core.Options{})
	if err != nil || !res.OK {
		t.Fatalf("verification: %v %+v", err, res)
	}
	// The tautology cannot be in the core.
	for _, i := range res.Core {
		if i == 0 {
			t.Error("tautology reported in unsat core")
		}
	}
}

func TestSeedChangesSearch(t *testing.T) {
	f := php(5)
	_, tr1, _, _, err := Solve(f, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, tr2, _, _, err := Solve(f, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds should (almost certainly) yield different proofs;
	// equal lengths with identical clauses would indicate the seed is dead.
	same := tr1.Len() == tr2.Len()
	if same {
		for i := range tr1.Clauses {
			if !tr1.Clauses[i].Equal(tr2.Clauses[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("warning: seeds produced identical proofs (possible but unlikely)")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	f := php(4)
	_, tr1, _, _, _ := Solve(f, Options{Seed: 7})
	_, tr2, _, _, _ := Solve(f, Options{Seed: 7})
	if tr1.Len() != tr2.Len() {
		t.Fatalf("non-deterministic: %d vs %d clauses", tr1.Len(), tr2.Len())
	}
	for i := range tr1.Clauses {
		if !tr1.Clauses[i].Equal(tr2.Clauses[i]) {
			t.Fatalf("non-deterministic at clause %d", i)
		}
	}
}

func TestCtxCancellation(t *testing.T) {
	f := php(8) // hard enough not to finish instantly
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, _, _, stats, err := Solve(f, Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if st != Unknown {
		t.Fatalf("status %v with pre-cancelled context", st)
	}
	if stats.Conflicts > 2 {
		t.Errorf("ran %d conflicts past the cancelled context", stats.Conflicts)
	}
}

package drat

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
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

func chainFormula() *cnf.Formula {
	return cnf.NewFormula(0).
		Add(1, 2).Add(1, -2).Add(-1, 3).Add(-1, -3)
}

func TestVerifyHandProof(t *testing.T) {
	p := &Proof{}
	p.Add(cl(1))
	p.Add(cl(-1))
	p.Add(nil) // empty clause
	res, err := Verify(context.Background(), chainFormula(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || !res.Refuted {
		t.Fatalf("res = %+v", res)
	}
}

func TestVerifyFinalPairTermination(t *testing.T) {
	p := &Proof{}
	p.Add(cl(1))
	p.Add(cl(-1))
	res, err := Verify(context.Background(), chainFormula(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || !res.Refuted {
		t.Fatalf("final pair not accepted: %+v", res)
	}
}

func TestVerifyWithDeletions(t *testing.T) {
	// Learn (1), delete an original clause no longer needed, learn (-1).
	p := &Proof{}
	p.Add(cl(1))
	p.Delete(cl(1, 2)) // (1) subsumes it
	p.Delete(cl(1, -2))
	p.Add(cl(-1))
	p.Add(nil)
	res, err := Verify(context.Background(), chainFormula(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Deletions != 2 {
		t.Fatalf("res = %+v", res)
	}
}

// TestDeletionMatchesLiteralSet pins the content matching of deletion
// lines: a deletion names a live clause by its set of literals, whatever
// their order or repetition, and removes the newest live instance.
func TestDeletionMatchesLiteralSet(t *testing.T) {
	lk := newLiveKeys()
	lk.add(1, cl(1, -2, 3))
	lk.add(2, cl(3, 1, -2))
	lk.add(3, cl(1, 2, 3))
	for _, tc := range []struct {
		del  cnf.Clause
		id   int
		live bool
	}{
		{cl(-2, 3, 1, 3), 2, true},
		{cl(3, -2, 1), 1, true},
		{cl(1, -2, 3), 0, false},
		{cl(2, 3, 1, 1), 3, true},
		{cl(1, 3), 0, false},
	} {
		id, ok := lk.remove(tc.del)
		if ok != tc.live || (ok && int(id) != tc.id) {
			t.Errorf("remove(%v) = %d, %v; want %d, %v", tc.del, id, ok, tc.id, tc.live)
		}
	}
}

// TestVerifyStopsOnContext: a context that ends first stops the forward
// check with its bare error and a partial Result.
func TestVerifyStopsOnContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &Proof{}
	p.Add(cl(1))
	p.Add(nil)
	res, err := Verify(ctx, chainFormula(), p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Incomplete || res.StoppedAt != 0 || res.Refuted {
		t.Fatalf("res = %+v, want an incomplete run stopped at step 0", res)
	}
}

func TestVerifyRejectsNonRUP(t *testing.T) {
	// (x9) must not slip through: with (¬x9 x5) in the formula the clause
	// is not blocked (pivot resolvent (x5) is not RUP), and it is not RUP
	// itself (falsifying x9 propagates nothing relevant).
	f := chainFormula()
	f.Add(-9, 5)
	p := &Proof{}
	p.Add(cl(9))
	p.Add(nil)
	res, err := Verify(context.Background(), f, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.FailedStep != 0 {
		t.Fatalf("res = %+v", res)
	}
	if !strings.Contains(res.Reason, "RAT") {
		t.Errorf("reason = %q", res.Reason)
	}
}

func TestVerifyRejectsDeletingTooMuch(t *testing.T) {
	// Deleting a clause the refutation still needs must make a later
	// addition fail.
	p := &Proof{}
	p.Delete(cl(1, 2))
	p.Add(cl(1)) // no longer RUP without (1 2)
	res, err := Verify(context.Background(), chainFormula(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.FailedStep != 1 {
		t.Fatalf("res = %+v", res)
	}
	if !strings.Contains(res.Reason, "RUP") {
		t.Errorf("reason = %q", res.Reason)
	}
}

func TestVerifyRejectsDeletingDeadClause(t *testing.T) {
	p := &Proof{}
	p.Delete(cl(7, 8))
	res, err := Verify(context.Background(), chainFormula(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.FailedStep != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestVerifyRejectsNoRefutation(t *testing.T) {
	// Adding a non-unit RUP clause creates no unit propagation, so the
	// database is not refuted and the proof is incomplete. (A unit would
	// not do here: the chain formula is so tight that any unit completes
	// the refutation by propagation alone.)
	p := &Proof{}
	p.Add(cl(1, 2))
	res, err := Verify(context.Background(), chainFormula(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatalf("res = %+v", res)
	}
	if res.FailedStep != p.Len() {
		t.Errorf("FailedStep = %d", res.FailedStep)
	}
}

func TestVerifyAcceptsRATClause(t *testing.T) {
	// Blocked clause: (x4 x5) with pivot x4; no live clause contains ¬x4,
	// so RAT holds vacuously although RUP fails (x5 is a slack variable so
	// the tight chain formula cannot rescue it via propagation). The rest
	// of the proof refutes the chain formula as usual.
	f := chainFormula()
	f.Add(5, 6)
	p := &Proof{}
	p.Add(cl(4, 5))
	p.Add(cl(1))
	p.Add(cl(-1))
	p.Add(nil)
	res, err := Verify(context.Background(), f, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("RAT clause rejected: %+v", res)
	}
	if res.RATChecks != 1 {
		t.Errorf("RATChecks = %d, want 1", res.RATChecks)
	}
}

func TestVerifyRATWithResolvents(t *testing.T) {
	// Extended-resolution style definition: y <-> x5 AND x6 introduced as
	// clauses with fresh pivot y (var 9), over slack variables x5, x6 that
	// the refutation itself never touches (the chain formula is so tight
	// that clauses over ITS variables would be plain RUP and never
	// exercise the RAT fallback).
	f := chainFormula()
	f.Add(5, 6) // slack clause so x5/x6 exist
	p := &Proof{}
	p.Add(cl(9, -5, -6)) // y ∨ ¬x5 ∨ ¬x6 (pivot 9: nothing contains ¬9 yet)
	p.Add(cl(-9, 5))     // ¬y ∨ x5: pivot ¬9; resolvent = (5 ¬5 ¬6) tautology
	p.Add(cl(-9, 6))     // ¬y ∨ x6: resolvent = (6 ¬5 ¬6) tautology
	p.Add(cl(1))
	p.Add(cl(-1))
	p.Add(nil)
	res, err := Verify(context.Background(), f, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("extended-resolution steps rejected at %d: %s", res.FailedStep, res.Reason)
	}
	if res.RATChecks == 0 {
		t.Error("no RAT fallback used")
	}
}

func TestVerifyRATFailure(t *testing.T) {
	// (x9 v x1) followed by (¬x9): the second clause has pivot ¬x9 and a
	// live clause containing x9 whose resolvent (x1) is not RUP... actually
	// (x1) IS RUP on the chain formula. Use a looser base formula.
	f := cnf.NewFormula(0).Add(1, 2)
	p := &Proof{}
	p.Add(cl(9, 1)) // RAT (blocked)
	p.Add(cl(-9))   // pivot ¬9; resolvent with (9 1) = (1), not RUP under (1 2) only
	res, err := Verify(context.Background(), f, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("non-RAT clause accepted")
	}
	if res.FailedStep != 1 {
		t.Errorf("FailedStep = %d", res.FailedStep)
	}
}

func TestIORoundTrip(t *testing.T) {
	p := &Proof{}
	p.Add(cl(1, -2, 3))
	p.Delete(cl(4, 5))
	p.Add(nil)
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "d 4 5 0") {
		t.Errorf("deletion line missing:\n%s", buf.String())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || !got.Steps[1].Del || !got.Steps[1].C.Equal(cl(4, 5)) {
		t.Fatalf("round trip: %+v", got.Steps)
	}
	if got.Additions() != 2 || got.Deletions() != 1 {
		t.Errorf("counts: %d/%d", got.Additions(), got.Deletions())
	}
}

func TestReadErrors(t *testing.T) {
	for _, in := range []string{"1 2\n", "d x 0\n"} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) succeeded", in)
		}
	}
}

func TestFromTrace(t *testing.T) {
	tr := proof.New()
	tr.Append(cl(1), 0)
	tr.Append(cl(-1), 0)
	p := FromTrace(tr)
	if p.Len() != 2 || p.Deletions() != 0 {
		t.Fatalf("p = %+v", p)
	}
	res, err := Verify(context.Background(), chainFormula(), p)
	if err != nil || !res.OK {
		t.Fatalf("lifted trace rejected: %v %+v", err, res)
	}
}

// TestSolverRecorderEndToEnd is the keystone: a solver run with aggressive
// clause deletion, recorded through the hooks, must produce a DRUP proof
// with deletions that the checker accepts.
func TestSolverRecorderEndToEnd(t *testing.T) {
	inst := gen.PHP(6)
	rec := NewRecorder()
	opts := solver.Options{
		MaxLearnedFactor: 0.05, // force deletions
		RestartInterval:  20,
		OnLearn:          rec.Learn,
		OnDelete:         rec.Delete,
	}
	st, _, _, stats, err := solver.Solve(inst.F, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st != solver.Unsat {
		t.Fatalf("status %v", st)
	}
	if stats.Deleted == 0 {
		t.Fatal("no deletions recorded — test is vacuous")
	}
	p := rec.Proof()
	if p.Deletions() != int(stats.Deleted) {
		t.Errorf("recorded %d deletions, stats say %d", p.Deletions(), stats.Deleted)
	}
	res, err := Verify(context.Background(), inst.F, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("DRUP proof rejected at step %d: %s", res.FailedStep, res.Reason)
	}
	if !res.Refuted {
		t.Error("no refutation established")
	}
}

func TestSolverRecorderAcrossFamilies(t *testing.T) {
	for _, inst := range []gen.Instance{gen.AdderEquiv(8), gen.XorChain(9), gen.Fifo(4, 6)} {
		rec := NewRecorder()
		opts := solver.Options{
			MaxLearnedFactor: 0.1,
			OnLearn:          rec.Learn,
			OnDelete:         rec.Delete,
		}
		st, _, _, _, err := solver.Solve(inst.F, opts)
		if err != nil || st != solver.Unsat {
			t.Fatalf("%s: %v %v", inst.Name, st, err)
		}
		res, err := Verify(context.Background(), inst.F, rec.Proof())
		if err != nil || !res.OK {
			t.Fatalf("%s: DRUP rejected: %v %+v", inst.Name, err, res)
		}
	}
}

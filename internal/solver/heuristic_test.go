package solver

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cnf"
)

// TestVarHeapPopOrder: popping everything yields variables in
// non-increasing activity order.
func TestVarHeapPopOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		s := New(len(raw), Options{})
		for v, a := range raw {
			s.activity[v] = float64(a)
			s.order.bumped(cnf.Var(v))
		}
		// Rebuild cleanly: drain and re-push to exercise push too.
		var drained []cnf.Var
		for {
			v, ok := s.order.pop()
			if !ok {
				break
			}
			drained = append(drained, v)
		}
		for i := 1; i < len(drained); i++ {
			if s.activity[drained[i-1]] < s.activity[drained[i]] {
				return false
			}
		}
		return len(drained) == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarHeapBumped(t *testing.T) {
	s := New(10, Options{})
	for v := 0; v < 10; v++ {
		s.activity[v] = float64(v)
		s.order.bumped(cnf.Var(v))
	}
	// Bump variable 0 to the top.
	s.activity[0] = 100
	s.order.bumped(0)
	v, ok := s.order.pop()
	if !ok || v != 0 {
		t.Errorf("pop = %v, %v; want 0", v, ok)
	}
}

func TestVarHeapPushIfAbsent(t *testing.T) {
	s := New(3, Options{})
	// All three pushed by New; popping one and re-pushing must not
	// duplicate the others.
	v, _ := s.order.pop()
	s.order.pushIfAbsent(v)
	s.order.pushIfAbsent(v) // no-op
	count := 0
	for {
		if _, ok := s.order.pop(); !ok {
			break
		}
		count++
	}
	if count != 3 {
		t.Errorf("heap contained %d vars, want 3", count)
	}
}

// TestAnalyze1UIPAsserting: after a conflict, the learned clause's first
// literal is unassigned at the backjump level and every other literal is
// false there — the asserting-clause invariant.
func TestAnalyze1UIPAsserting(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 100; round++ {
		nVars := 6 + rng.Intn(8)
		f := cnf.NewFormula(nVars)
		for i := 0; i < nVars*4; i++ {
			k := 2 + rng.Intn(2)
			c := make(cnf.Clause, 0, k)
			for j := 0; j < k; j++ {
				c = append(c, cnf.NewLit(cnf.Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			f.AddClause(c)
		}
		s := NewFromFormula(f, Options{})
		// Drive the search manually until the first conflict.
		for _, u := range s.unitsPending {
			if !s.enqueue(u.lits[0], u) {
				break
			}
		}
		s.unitsPending = nil
		var confl *clause
		for confl == nil {
			confl = s.propagate()
			if confl != nil {
				break
			}
			l := s.pickBranchLit()
			if l == cnf.LitUndef {
				break // satisfiable without conflicts
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(l, nil)
		}
		if confl == nil || s.decisionLevel() == 0 {
			continue
		}
		learnt, btLevel, resolutions, _ := s.analyze(confl, Learn1UIP)
		if len(learnt) == 0 {
			t.Fatalf("round %d: empty learnt clause", round)
		}
		if resolutions < 0 {
			t.Fatalf("round %d: negative resolution count", round)
		}
		// learnt[0] is at the current decision level; all others below.
		if int(s.level[learnt[0].Var()]) != s.decisionLevel() {
			t.Fatalf("round %d: asserting literal at level %d, current %d",
				round, s.level[learnt[0].Var()], s.decisionLevel())
		}
		for _, l := range learnt[1:] {
			if int(s.level[l.Var()]) > btLevel {
				t.Fatalf("round %d: literal %v above backjump level %d", round, l, btLevel)
			}
			if s.value(l) != -1 {
				t.Fatalf("round %d: non-false literal %v in learnt clause", round, l)
			}
		}
	}
}

// TestAnalyzeDecisionOnlyDecisions: the decision-scheme clause contains
// exactly negations of decision literals.
func TestAnalyzeDecisionOnlyDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	checked := 0
	for round := 0; round < 200 && checked < 50; round++ {
		nVars := 6 + rng.Intn(8)
		f := cnf.NewFormula(nVars)
		for i := 0; i < nVars*4; i++ {
			k := 2 + rng.Intn(2)
			c := make(cnf.Clause, 0, k)
			for j := 0; j < k; j++ {
				c = append(c, cnf.NewLit(cnf.Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			f.AddClause(c)
		}
		s := NewFromFormula(f, Options{})
		for _, u := range s.unitsPending {
			if !s.enqueue(u.lits[0], u) {
				break
			}
		}
		s.unitsPending = nil
		var confl *clause
		for confl == nil {
			confl = s.propagate()
			if confl != nil {
				break
			}
			l := s.pickBranchLit()
			if l == cnf.LitUndef {
				break
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(l, nil)
		}
		if confl == nil || s.decisionLevel() == 0 {
			continue
		}
		checked++
		decisions := map[cnf.Lit]bool{}
		for lvl := 0; lvl < s.decisionLevel(); lvl++ {
			// The decision of level lvl+1 sits at trailLim[lvl] (dummy
			// levels cannot occur without assumptions).
			decisions[s.trail[s.trailLim[lvl]]] = true
		}
		learnt, _, _, _ := s.analyze(confl, LearnDecision)
		for _, l := range learnt {
			if !decisions[l.Neg()] {
				t.Fatalf("round %d: literal %v is not a negated decision", round, l)
			}
		}
		// Levels must be distinct and descending.
		var levels []int
		for _, l := range learnt {
			levels = append(levels, int(s.level[l.Var()]))
		}
		if !sort.IsSorted(sort.Reverse(sort.IntSlice(levels))) {
			t.Fatalf("round %d: levels not descending: %v", round, levels)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d conflicts exercised", checked)
	}
}

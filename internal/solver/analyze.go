package solver

import (
	"sort"

	"repro/internal/cnf"
)

// analyze derives a conflict clause from the falsified clause confl using
// the given scheme. It returns the learned literals (index 0 is the
// asserting literal), the backjump level, the exact number of resolution
// steps used, and (when Options.RecordChains) the ordered antecedent IDs
// whose sequential resolution yields the clause.
//
// Precondition: decisionLevel() >= 1.
func (s *Solver) analyze(confl *clause, scheme LearnScheme) ([]cnf.Lit, int, int64, []int) {
	if scheme == LearnDecision {
		return s.analyzeDecision(confl)
	}
	return s.analyze1UIP(confl)
}

// mark sets the seen flag for v and remembers it for cleanup.
func (s *Solver) mark(v cnf.Var) {
	s.seen[v] = true
	s.seenClear = append(s.seenClear, v)
}

func (s *Solver) clearSeen() {
	for _, v := range s.seenClear {
		s.seen[v] = false
	}
	s.seenClear = s.seenClear[:0]
}

// analyze1UIP is Chaff's first-UIP scheme: resolve backwards along the
// trail, but only through current-decision-level literals, stopping at the
// first unique implication point. The resulting clauses are the paper's
// "local" conflict clauses, obtained by a small number of resolutions.
func (s *Solver) analyze1UIP(confl *clause) ([]cnf.Lit, int, int64, []int) {
	learnt := make([]cnf.Lit, 1, 16) // [0] reserved for the asserting literal
	var chain []int
	if s.opts.RecordChains {
		chain = append(chain, confl.id)
	}
	var resolutions int64
	var zeroVars []cnf.Var // level-0 literals resolved away implicitly

	pathC := 0
	p := cnf.LitUndef
	idx := len(s.trail) - 1
	curLevel := int32(s.decisionLevel())

	c := confl
	for {
		if c.learned {
			s.bumpClause(c)
		}
		for _, q := range c.lits {
			if q == p {
				continue // the literal this reason implied
			}
			v := q.Var()
			if s.seen[v] {
				continue
			}
			s.mark(v)
			s.bumpVar(v)
			s.bumpLit(q)
			switch {
			case s.level[v] >= curLevel:
				pathC++
			case s.level[v] > 0:
				learnt = append(learnt, q)
			default:
				zeroVars = append(zeroVars, v)
			}
		}
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		pathC--
		if pathC == 0 {
			break
		}
		c = s.reason[v]
		resolutions++
		if chain != nil {
			chain = append(chain, c.id)
		}
	}
	learnt[0] = p.Neg()

	// Resolve level-0 literals away so the clause really is the resolvent
	// of its chain (and so the resolution count matches what a resolution
	// graph would store).
	res0, chain0 := s.resolveZeros(zeroVars)
	resolutions += res0
	if chain != nil {
		chain = append(chain, chain0...)
	}

	btLevel := s.prepareLearnt(learnt)
	s.clearSeen()
	return learnt, btLevel, resolutions, chain
}

// analyzeDecision is relsat's all-decision scheme: resolve every implied
// literal away (at every level) until only negations of decision literals
// remain — the paper's "global" conflict clauses, obtained by resolving many
// clauses of the current formula.
func (s *Solver) analyzeDecision(confl *clause) ([]cnf.Lit, int, int64, []int) {
	var learnt []cnf.Lit
	var chain []int
	if s.opts.RecordChains {
		chain = append(chain, confl.id)
	}
	var resolutions int64

	if confl.learned {
		s.bumpClause(confl)
	}
	remaining := 0
	for _, q := range confl.lits {
		v := q.Var()
		if !s.seen[v] {
			s.mark(v)
			s.bumpVar(v)
			s.bumpLit(q)
			remaining++
		}
	}
	for idx := len(s.trail) - 1; idx >= 0 && remaining > 0; idx-- {
		l := s.trail[idx]
		v := l.Var()
		if !s.seen[v] {
			continue
		}
		remaining--
		r := s.reason[v]
		if r == nil {
			// A decision: its negation stays in the clause. The walk is in
			// descending trail order, so learnt[0] ends up the deepest
			// decision's negation — the asserting literal.
			learnt = append(learnt, l.Neg())
			continue
		}
		resolutions++
		if chain != nil {
			chain = append(chain, r.id)
		}
		if r.learned {
			s.bumpClause(r)
		}
		for _, q := range r.lits {
			w := q.Var()
			if w == v || s.seen[w] {
				continue
			}
			s.mark(w)
			s.bumpVar(w)
			s.bumpLit(q)
			remaining++
		}
	}

	btLevel := 0
	if len(learnt) > 1 {
		btLevel = int(s.level[learnt[1].Var()])
	}
	s.clearSeen()
	return learnt, btLevel, resolutions, chain
}

// resolveZeros eliminates the marked level-0 variables by resolving with
// their reasons in descending trail order, returning the number of
// resolutions and the chain extension. Every literal of a level-0 reason is
// itself at level 0, so the elimination is closed.
func (s *Solver) resolveZeros(zeroVars []cnf.Var) (int64, []int) {
	if len(zeroVars) == 0 {
		return 0, nil
	}
	// Collect the full transitive set first.
	all := append([]cnf.Var(nil), zeroVars...)
	for i := 0; i < len(all); i++ {
		v := all[i]
		r := s.reason[v]
		if r == nil {
			continue // defensive; level-0 vars always have unit/clause reasons
		}
		for _, q := range r.lits {
			w := q.Var()
			if w == v || s.seen[w] {
				continue
			}
			s.mark(w)
			all = append(all, w)
		}
	}
	// Chain order: descending trail position guarantees each reason still
	// clashes with the running resolvent.
	sort.Slice(all, func(i, j int) bool { return s.trailPos[all[i]] > s.trailPos[all[j]] })
	var chain []int
	var res int64
	for _, v := range all {
		if r := s.reason[v]; r != nil {
			res++
			if s.opts.RecordChains {
				chain = append(chain, r.id)
			}
		}
	}
	return res, chain
}

// prepareLearnt orders the learned literals for attachment: learnt[0] is the
// asserting literal; learnt[1] (when present) is a literal from the backjump
// level, which two-watched-literal attachment requires. Returns the backjump
// level.
func (s *Solver) prepareLearnt(learnt []cnf.Lit) int {
	if len(learnt) == 1 {
		return 0
	}
	maxI := 1
	for i := 2; i < len(learnt); i++ {
		if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
			maxI = i
		}
	}
	learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
	return int(s.level[learnt[1].Var()])
}

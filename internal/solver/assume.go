package solver

import "repro/internal/cnf"

// RunAssuming executes the CDCL search under the given assumption literals,
// MiniSat-style: assumptions occupy the first decision levels and are
// re-established after every restart. Possible outcomes:
//
//   - Sat: a model satisfying the formula and all assumptions (see Model).
//   - Unsat: the formula is unsatisfiable regardless of assumptions; the
//     proof trace terminates as usual.
//   - UnsatAssumptions: the formula is unsatisfiable under the assumptions;
//     ConflictSubset returns a subset A of the assumptions such that
//     F ∧ A is unsatisfiable (the "final conflict clause" analysis).
//   - Unknown: conflict budget exhausted.
//
// The solver remains usable afterwards: learned clauses are kept (they are
// implied by the formula alone — assumption literals are decisions, so
// conflict analysis leaves their negations inside learned clauses rather
// than resolving them away), making repeated RunAssuming calls incremental.
func (s *Solver) RunAssuming(assumps []cnf.Lit) Status {
	if s.provedUnsat {
		return Unsat
	}
	for _, a := range assumps {
		if int(a.Var()) >= s.nVars {
			s.growVars(int(a.Var()) + 1)
		}
	}
	s.cancelUntil(0)
	s.assumptions = append(s.assumptions[:0], assumps...)
	s.conflictSubset = nil
	defer func() { s.assumptions = s.assumptions[:0] }()

	if !s.okay {
		s.provedUnsat = true
		s.emit(nil, 0, []int{s.emptyOrigID})
		return Unsat
	}
	for _, u := range s.unitsPending {
		if !s.enqueue(u.lits[0], u) {
			s.provedUnsat = true
			s.finalize(u)
			return Unsat
		}
	}
	s.unitsPending = nil

	// Restarts come every RestartInterval conflicts; a negative interval
	// disables them.
	conflictsSinceRestart := int64(0)
	restartInterval := int64(s.opts.RestartInterval)
	for {
		confl := s.propagate()
		if confl != nil {
			s.stats.Conflicts++
			conflictsSinceRestart++
			s.obsConflicts.Inc()
			s.opts.Progress.Step(1)
			// Refresh the cheap-to-read gauges at conflict granularity so a
			// live -metrics endpoint tracks the search without per-enqueue
			// atomics on the propagation hot path.
			s.obsProps.Set(s.stats.Propagations)
			s.obsTrail.Set(int64(s.stats.MaxTrail))
			s.obsLearnts.Set(int64(len(s.learnts)))
			if s.decisionLevel() == 0 {
				s.provedUnsat = true
				s.finalize(confl)
				return Unsat
			}
			scheme := s.opts.Learn
			if scheme == LearnHybrid {
				if s.stats.Conflicts%hybridPeriod == 0 {
					scheme = LearnDecision
				} else {
					scheme = Learn1UIP
				}
			}
			learnt, btLevel, resolutions, chain := s.analyze(confl, scheme)
			s.emit(learnt, resolutions, chain)
			s.cancelUntil(btLevel)
			s.addLearnt(learnt)
			s.decayActivities()

			if s.opts.MaxConflicts > 0 && s.stats.Conflicts >= s.opts.MaxConflicts {
				return Unknown
			}
			if s.opts.Ctx != nil && s.opts.Ctx.Err() != nil {
				return Unknown
			}
			if restartInterval > 0 && conflictsSinceRestart >= restartInterval {
				conflictsSinceRestart = 0
				s.stats.Restarts++
				s.obsRestarts.Inc()
				s.cancelUntil(0)
			}
			// The capacity grows geometrically with every reduction so that
			// even pathological MaxLearnedFactor settings cannot livelock
			// the search by endlessly discarding progress.
			if base := s.opts.MaxLearnedFactor * float64(len(s.clauses)+32); s.learntCap < base {
				s.learntCap = base
			}
			if float64(len(s.learnts)) > s.learntCap {
				s.reduceDB()
				s.learntCap *= 1.15
			}
			continue
		}

		// Establish pending assumptions before free decisions.
		if dl := s.decisionLevel(); dl < len(s.assumptions) {
			p := s.assumptions[dl]
			switch s.value(p) {
			case 1:
				// Already satisfied: open a dummy level so indices stay
				// aligned with the assumption list.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case -1:
				// Contradicted: compute the failing subset.
				s.conflictSubset = s.analyzeFinal(p)
				return UnsatAssumptions
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(p, nil)
			continue
		}

		l := s.pickBranchLit()
		if l == cnf.LitUndef {
			return Sat
		}
		s.stats.Decisions++
		s.obsDecisions.Inc()
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(l, nil)
	}
}

// ConflictSubset returns, after an UnsatAssumptions result, a subset A of
// the assumptions such that the formula conjoined with A is unsatisfiable.
func (s *Solver) ConflictSubset() []cnf.Lit {
	return append([]cnf.Lit(nil), s.conflictSubset...)
}

// analyzeFinal computes the assumption subset responsible for the failed
// assumption p (whose negation is currently implied): walk the implication
// graph from ¬p back to decision (assumption) literals.
func (s *Solver) analyzeFinal(p cnf.Lit) []cnf.Lit {
	out := []cnf.Lit{p}
	if s.decisionLevel() == 0 {
		return out
	}
	s.mark(p.Var())
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		r := s.reason[v]
		if r == nil {
			// All decision levels are assumption levels at this point, so a
			// reason-free variable is an assumption. (This also covers the
			// degenerate case of assuming both a and ¬a: the subset is then
			// {a, ¬a}.)
			out = append(out, s.trail[i])
			continue
		}
		for _, q := range r.lits {
			w := q.Var()
			if w == v || s.seen[w] || s.level[w] == 0 {
				continue
			}
			s.mark(w)
		}
	}
	s.clearSeen()
	return out
}

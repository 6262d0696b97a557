// Package muscore extracts unsatisfiable cores with assumption-based
// incremental solving — the alternative technique to the paper's
// verification-based core extraction, provided for comparison (the bench
// harness runs both side by side).
//
// Each clause Ci of the formula is augmented with a fresh selector literal
// ¬si; solving under the assumptions {s1..sm} is unsatisfiable exactly when
// the original formula is, and the solver's final-conflict analysis returns
// the subset of selectors — i.e. of clauses — responsible. Iterating on
// that subset shrinks the core; deletion-based minimization yields a
// minimal unsatisfiable subset (MUS).
package muscore

import (
	"fmt"
	"sort"

	"repro/internal/cnf"
	"repro/internal/solver"
)

// instrument builds the selector-augmented formula: clause i becomes
// Ci ∨ ¬s_i with s_i = variable f.NumVars + i.
func instrument(f *cnf.Formula) *cnf.Formula {
	out := cnf.NewFormula(f.NumVars + f.NumClauses())
	for i, c := range f.Clauses {
		nc := make(cnf.Clause, 0, len(c)+1)
		nc = append(nc, c...)
		nc = append(nc, cnf.NegLit(cnf.Var(f.NumVars+i)))
		out.AddClause(nc)
	}
	return out
}

func selector(f *cnf.Formula, i int) cnf.Lit {
	return cnf.PosLit(cnf.Var(f.NumVars + i))
}

// Extract returns the indices of an unsatisfiable core of f, computed by
// assumption-based solving iterated to a fixpoint. It errors when f is
// satisfiable or the conflict budget runs out.
func Extract(f *cnf.Formula, opts solver.Options) ([]int, error) {
	opts.DisableProof = true
	inst := instrument(f)
	s := solver.NewFromFormula(inst, opts)

	current := make([]int, f.NumClauses())
	for i := range current {
		current[i] = i
	}
	for {
		assumps := make([]cnf.Lit, len(current))
		for k, i := range current {
			assumps[k] = selector(f, i)
		}
		switch st := s.RunAssuming(assumps); st {
		case solver.Sat:
			if len(current) == f.NumClauses() {
				return nil, fmt.Errorf("muscore: formula is satisfiable")
			}
			return nil, fmt.Errorf("muscore: internal error: core subset became satisfiable")
		case solver.UnsatAssumptions:
			next := subsetFromConflict(f, s.ConflictSubset())
			if len(next) >= len(current) {
				return current, nil
			}
			current = next
		case solver.Unsat:
			// The instrumented formula is unsatisfiable outright — cannot
			// happen (all selectors false satisfies it) unless the budget
			// logic broke.
			return nil, fmt.Errorf("muscore: instrumented formula unexpectedly UNSAT")
		default:
			return nil, fmt.Errorf("muscore: conflict budget exhausted")
		}
	}
}

// subsetFromConflict maps the failed-assumption literals back to clause
// indices, sorted ascending.
func subsetFromConflict(f *cnf.Formula, lits []cnf.Lit) []int {
	seen := make(map[int]bool, len(lits))
	var out []int
	for _, l := range lits {
		i := int(l.Var()) - f.NumVars
		if i >= 0 && i < f.NumClauses() && !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// Minimize shrinks a core to a minimal unsatisfiable subset (MUS) by
// deletion: for each clause, test whether the rest of the core is still
// unsatisfiable without it; if so, drop it permanently. The result is
// minimal: removing any single clause makes it satisfiable.
func Minimize(f *cnf.Formula, coreIdx []int, opts solver.Options) ([]int, error) {
	opts.DisableProof = true
	inst := instrument(f)
	s := solver.NewFromFormula(inst, opts)

	inCore := make(map[int]bool, len(coreIdx))
	for _, i := range coreIdx {
		inCore[i] = true
	}
	for _, candidate := range coreIdx {
		if !inCore[candidate] {
			continue // already dropped via an earlier conflict subset
		}
		assumps := make([]cnf.Lit, 0, len(inCore)-1)
		for i := range inCore {
			if i != candidate {
				assumps = append(assumps, selector(f, i))
			}
		}
		switch st := s.RunAssuming(assumps); st {
		case solver.UnsatAssumptions:
			// Still unsatisfiable without the candidate: shrink to the
			// conflict subset (which excludes the candidate and possibly
			// more clauses).
			sub := subsetFromConflict(f, s.ConflictSubset())
			inCore = make(map[int]bool, len(sub))
			for _, i := range sub {
				inCore[i] = true
			}
		case solver.Sat:
			// The candidate is necessary; keep it.
		case solver.Unsat:
			return nil, fmt.Errorf("muscore: instrumented formula unexpectedly UNSAT")
		default:
			return nil, fmt.Errorf("muscore: conflict budget exhausted")
		}
	}
	out := make([]int, 0, len(inCore))
	for i := range inCore {
		out = append(out, i)
	}
	sort.Ints(out)
	return out, nil
}

package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/muscore"
	"repro/internal/resolution"
	"repro/internal/solver"
)

// CoreMethodsRow compares the repository's three unsat-core notions:
// the paper's verification-based core, the assumption-based (selector)
// core, and the resolution-graph-reachable core; plus the MUS lower bound
// when affordable.
type CoreMethodsRow struct {
	Name           string
	Clauses        int
	VerifyCore     int
	AssumptionCore int
	ResolutionCore int
	MUS            int // 0 when skipped
}

// CoreMethodsAblation runs all core extractors per instance. computeMUS
// bounds the instance size (in clauses) up to which the quadratic MUS
// minimization runs.
func CoreMethodsAblation(insts []gen.Instance, sopt solver.Options, musMaxClauses int) ([]CoreMethodsRow, error) {
	var rows []CoreMethodsRow
	for _, inst := range insts {
		row := CoreMethodsRow{Name: inst.Name, Clauses: inst.F.NumClauses()}

		// Verification-based core (the paper's).
		run, err := RunInstance(inst, sopt, core.Options{Mode: core.ModeCheckMarked})
		if err != nil {
			return nil, err
		}
		row.VerifyCore = len(run.Verify.Core)

		// Assumption-based core.
		ac, err := muscore.Extract(inst.F, sopt)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", inst.Name, err)
		}
		row.AssumptionCore = len(ac)

		// Resolution-graph-reachable core.
		ropts := sopt
		ropts.RecordChains = true
		s := solver.NewFromFormula(inst.F, ropts)
		if st := s.Run(); st != solver.Unsat {
			return nil, fmt.Errorf("bench: %s: %v", inst.Name, st)
		}
		rp, err := resolution.FromSolverRun(inst.F, s.Trace(), s.Chains())
		if err != nil {
			return nil, err
		}
		g, err := rp.Expand()
		if err != nil {
			return nil, err
		}
		row.ResolutionCore = g.Reachable().SourcesTouched

		if inst.F.NumClauses() <= musMaxClauses {
			mus, err := muscore.Minimize(inst.F, ac, sopt)
			if err != nil {
				return nil, fmt.Errorf("bench: %s MUS: %w", inst.Name, err)
			}
			row.MUS = len(mus)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

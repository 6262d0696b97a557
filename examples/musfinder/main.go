// Musfinder: compare the three unsat-core notions the repository
// implements on one instance, then minimize down to a MUS (minimal
// unsatisfiable subset) with incremental assumption-based solving.
//
//   - the paper's core: clauses of F marked during proof verification (§4);
//   - the assumption core: selector literals surviving final-conflict
//     analysis;
//   - the resolution core: sources reachable from the empty clause in the
//     expanded resolution graph.
//
// All three are unsatisfiable subsets; the MUS is a subset of each
// candidate it is seeded from and cannot shrink further.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/muscore"
	"repro/internal/resolution"
	"repro/internal/solver"
)

func main() {
	inst := gen.Longmult(5, 4)
	f := inst.F
	fmt.Printf("instance %s: %d clauses\n\n", inst.Name, f.NumClauses())

	// 1. Verification-based core (the paper's by-product).
	st, tr, _, _, err := solver.Solve(f, solver.Options{})
	if err != nil || st != solver.Unsat {
		log.Fatalf("solve: %v %v", st, err)
	}
	vres, err := core.Verify(f, tr, core.Options{Mode: core.ModeCheckMarked})
	if err != nil || !vres.OK {
		log.Fatalf("verify: %v", err)
	}
	fmt.Printf("verification core:  %4d clauses (%.1f%%)\n",
		len(vres.Core), vres.CorePct(f.NumClauses()))

	// 2. Assumption-based core.
	ac, err := muscore.Extract(f, solver.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assumption core:    %4d clauses (%.1f%%)\n",
		len(ac), 100*float64(len(ac))/float64(f.NumClauses()))

	// 3. Resolution-graph-reachable core.
	s := solver.NewFromFormula(f, solver.Options{RecordChains: true})
	if s.Run() != solver.Unsat {
		log.Fatal("not unsat")
	}
	rp, err := resolution.FromSolverRun(f, s.Trace(), s.Chains())
	if err != nil {
		log.Fatal(err)
	}
	g, err := rp.Expand()
	if err != nil {
		log.Fatal(err)
	}
	reach := g.Reachable()
	fmt.Printf("resolution core:    %4d clauses (%.1f%%), graph depth %d\n",
		reach.SourcesTouched, 100*float64(reach.SourcesTouched)/float64(f.NumClauses()),
		reach.Depth)

	// 4. MUS: minimal unsatisfiable subset, seeded from the assumption core.
	mus, err := muscore.Minimize(f, ac, solver.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MUS (minimal):      %4d clauses (%.1f%%)\n",
		len(mus), 100*float64(len(mus))/float64(f.NumClauses()))

	// The MUS really is unsatisfiable and everything above contains it in
	// spirit: re-solve to confirm.
	st2, _, _, _, err := solver.Solve(f.Restrict(mus), solver.Options{})
	if err != nil || st2 != solver.Unsat {
		log.Fatalf("MUS check failed: %v %v", st2, err)
	}
	fmt.Println("\nMUS re-solved: UNSAT confirmed; no clause of it can be dropped.")
}

// Drup: the lineage demo. The paper's conflict-clause trace grew into the
// DRUP/DRAT format used by SAT competitions; the only additions were
// deletion lines (so the checker's database tracks the solver's) and the
// RAT generalization. This example produces a deletion-aware proof from a
// solver run, checks it forward (RUP+RAT) and backward (drat-trim's
// algorithm — which is exactly the paper's Proof_verification2 plus
// deletion handling), and shows the backward pass's by-products: the
// trimmed proof and the unsatisfiable core.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/drat"
	"repro/internal/gen"
	"repro/internal/solver"
)

func main() {
	inst := gen.Control(6, 2)
	fmt.Printf("instance %s: %d clauses\n", inst.Name, inst.F.NumClauses())

	rec := drat.NewRecorder()
	opts := solver.Options{
		MaxLearnedFactor: 0.2, // aggressive deletion to make the point
		OnLearn:          rec.Learn,
		OnDelete:         rec.Delete,
	}
	st, _, _, stats, err := solver.Solve(inst.F, opts)
	if err != nil || st != solver.Unsat {
		log.Fatalf("solve: %v %v", st, err)
	}
	p := rec.Proof()
	fmt.Printf("DRUP proof: %d additions, %d deletions (solver deleted %d clauses)\n",
		p.Additions(), p.Deletions(), stats.Deleted)

	fres, err := drat.Verify(context.Background(), inst.F, p)
	if err != nil || !fres.OK {
		log.Fatalf("forward check failed: %v %+v", err, fres)
	}
	fmt.Printf("forward check:  OK (%d propagations, %d RAT fallbacks)\n",
		fres.Propagations, fres.RATChecks)

	bres, trimmed, coreIdx, err := drat.VerifyBackward(inst.F, p, core.Options{})
	if err != nil || !bres.OK {
		log.Fatalf("backward check failed: %v %+v", err, bres)
	}
	fmt.Printf("backward check: OK (%d propagations)\n", bres.Propagations)
	fmt.Printf("  trimmed proof: %d of %d additions kept (%.1f%%)\n",
		trimmed.Additions(), p.Additions(),
		100*float64(trimmed.Additions())/float64(p.Additions()))
	fmt.Printf("  unsat core:    %d of %d original clauses (%.1f%%)\n",
		len(coreIdx), inst.F.NumClauses(),
		100*float64(len(coreIdx))/float64(inst.F.NumClauses()))

	// The trimmed proof still verifies.
	tres, err := drat.Verify(context.Background(), inst.F, trimmed)
	if err != nil || !tres.OK {
		log.Fatalf("trimmed proof rejected: %v %+v", err, tres)
	}
	fmt.Println("trimmed proof re-verified forward: OK")
	fmt.Println("\nbackward checking with marking is the paper's Proof_verification2;")
	fmt.Println("deletion lines are the only thing DRUP added on top.")
}

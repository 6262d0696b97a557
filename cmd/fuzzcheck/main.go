// Command fuzzcheck is a differential fuzzer for the whole pipeline: it
// generates random CNF instances, solves each under every learning scheme,
// and cross-checks all the machinery against itself and against brute
// force:
//
//   - SAT answers must carry a model satisfying the formula;
//   - all schemes must agree on the status;
//   - every UNSAT proof must pass Proof_verification1 and 2, under both
//     BCP engines;
//   - the trimmed proof must verify again;
//   - with chains recorded, the resolution-graph proof must verify;
//   - small instances are additionally decided by brute force.
//
// Usage:
//
//	fuzzcheck [-n iterations] [-seed s] [-vars n] [-v]
//
// Exit status 0 when every iteration passes, 1 on the first discrepancy
// (with a reproducer seed printed).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/resolution"
	"repro/internal/solver"
)

func main() {
	os.Exit(run())
}

func run() int {
	iters := flag.Int("n", 200, "iterations")
	seed := flag.Int64("seed", 1, "base seed")
	maxVars := flag.Int("vars", 12, "max variables per instance")
	verbose := flag.Bool("v", false, "per-iteration progress")
	flag.Parse()

	sat, unsat := 0, 0
	for i := 0; i < *iters; i++ {
		s := *seed + int64(i)
		if err := checkOne(s, *maxVars); err != nil {
			fmt.Fprintf(os.Stderr, "fuzzcheck: FAILED at seed %d: %v\n", s, err)
			return 1
		}
		st := lastStatus
		if st == solver.Sat {
			sat++
		} else {
			unsat++
		}
		if *verbose {
			fmt.Printf("seed %d: %v\n", s, st)
		}
	}
	fmt.Printf("fuzzcheck: %d iterations passed (%d sat, %d unsat)\n", *iters, sat, unsat)
	return 0
}

var lastStatus solver.Status

func checkOne(seed int64, maxVars int) error {
	rng := rand.New(rand.NewSource(seed))
	nVars := 3 + rng.Intn(maxVars-2)
	nClauses := nVars * (2 + rng.Intn(4))
	f := cnf.NewFormula(nVars)
	for i := 0; i < nClauses; i++ {
		k := 1 + rng.Intn(3)
		c := make(cnf.Clause, 0, k)
		for j := 0; j < k; j++ {
			c = append(c, cnf.NewLit(cnf.Var(rng.Intn(nVars)), rng.Intn(2) == 0))
		}
		f.AddClause(c)
	}

	var want solver.Status
	if nVars <= 16 {
		want = solver.Unsat
		if bruteSat(f) {
			want = solver.Sat
		}
	}

	var statuses []solver.Status
	for _, scheme := range []solver.LearnScheme{solver.Learn1UIP, solver.LearnDecision, solver.LearnHybrid} {
		s := solver.NewFromFormula(f, solver.Options{Learn: scheme, RecordChains: true, Seed: seed})
		st := s.Run()
		statuses = append(statuses, st)
		switch st {
		case solver.Sat:
			if !f.Eval(s.Model()) {
				return fmt.Errorf("scheme %v: bogus model", scheme)
			}
		case solver.Unsat:
			tr := s.Trace()
			for _, mode := range []core.Mode{core.ModeCheckAll, core.ModeCheckMarked} {
				for _, eng := range []core.EngineKind{core.EngineWatched, core.EngineCounting} {
					res, err := core.Verify(f, tr, core.Options{Mode: mode, Engine: eng})
					if err != nil {
						return fmt.Errorf("scheme %v %v/%v: %v", scheme, mode, eng, err)
					}
					if !res.OK {
						return fmt.Errorf("scheme %v %v/%v: proof rejected at %d", scheme, mode, eng, res.FailedIndex)
					}
					if mode == core.ModeCheckMarked {
						trimmed, err := core.Trim(tr, res)
						if err != nil {
							return fmt.Errorf("trim: %v", err)
						}
						res2, err := core.Verify(f, trimmed, core.Options{Mode: core.ModeCheckAll})
						if err != nil || !res2.OK {
							return fmt.Errorf("trimmed proof rejected: %v", err)
						}
					}
				}
			}
			rp, err := resolution.FromSolverRun(f, tr, s.Chains())
			if err != nil {
				return fmt.Errorf("scheme %v: %v", scheme, err)
			}
			if err := rp.Verify(); err != nil {
				return fmt.Errorf("scheme %v: resolution proof: %v", scheme, err)
			}
		default:
			return fmt.Errorf("scheme %v: unexpected status %v", scheme, st)
		}
	}
	for _, st := range statuses[1:] {
		if st != statuses[0] {
			return fmt.Errorf("schemes disagree: %v", statuses)
		}
	}
	if want == solver.Sat || want == solver.Unsat {
		if statuses[0] != want {
			return fmt.Errorf("brute force says %v, solver says %v", want, statuses[0])
		}
	}

	lastStatus = statuses[0]
	return nil
}

func bruteSat(f *cnf.Formula) bool {
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

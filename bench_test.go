// Benchmarks regenerating the paper's experiments, one group per table plus
// the ablations DESIGN.md indexes. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers differ from the 500 MHz/640 MB 2002 testbed; the shapes
// the paper reports are asserted in the package tests and recorded in
// EXPERIMENTS.md.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/bdd"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dpll"
	"repro/internal/drat"
	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/muscore"
	"repro/internal/proof"
	"repro/internal/resolution"
	"repro/internal/seq"
	"repro/internal/simplify"
	"repro/internal/solver"
)

// benchInstances is a representative slice of the main suite kept small
// enough for repeated benchmark iterations.
func benchInstances() []gen.Instance {
	return []gen.Instance{
		gen.Pipe(2, 6),
		gen.Control(6, 3),
		gen.Barrel(8, 3),
		gen.Longmult(6, 5),
		gen.AdderEquiv(16),
		gen.Counter(8, 40),
	}
}

func mustSolve(b *testing.B, f *cnf.Formula, opts solver.Options) *proof.Trace {
	b.Helper()
	st, tr, _, _, err := solver.Solve(f, opts)
	if err != nil {
		b.Fatal(err)
	}
	if st != solver.Unsat {
		b.Fatalf("status %v", st)
	}
	return tr
}

// --- Table 1: unsatisfiable core extraction ---------------------------------

// BenchmarkTable1 measures the full Table 1 pipeline (solve + Verify2 with
// core extraction) per instance.
func BenchmarkTable1(b *testing.B) {
	for _, inst := range benchInstances() {
		b.Run(inst.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := bench.RunInstance(inst, bench.DefaultSolverOptions(),
					core.Options{Mode: core.ModeCheckMarked})
				if err != nil {
					b.Fatal(err)
				}
				if len(run.Verify.Core) == 0 {
					b.Fatal("empty core")
				}
			}
		})
	}
}

// --- Table 2: proof verification --------------------------------------------

// BenchmarkTable2Verify isolates the verification cost of Table 2: the
// proof is produced once, each iteration verifies it (Verify2, watched
// literals).
func BenchmarkTable2Verify(b *testing.B) {
	for _, inst := range benchInstances() {
		tr := mustSolve(b, inst.F, bench.DefaultSolverOptions())
		b.Run(inst.Name, func(b *testing.B) {
			b.ReportMetric(float64(tr.NumLiterals()), "proof-lits")
			b.ReportMetric(float64(tr.TotalResolutions()), "res-nodes")
			for i := 0; i < b.N; i++ {
				res, err := core.Verify(inst.F, tr, core.Options{Mode: core.ModeCheckMarked})
				if err != nil || !res.OK {
					b.Fatalf("%v %+v", err, res)
				}
			}
		})
	}
}

// BenchmarkTable2Solve is the proof-generation side of Table 2 (the paper's
// "verification took 2-3x the time needed to generate the proof" claim is
// the ratio of Table2Verify to this).
func BenchmarkTable2Solve(b *testing.B) {
	for _, inst := range benchInstances() {
		b.Run(inst.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustSolve(b, inst.F, bench.DefaultSolverOptions())
			}
		})
	}
}

// --- Table 3: resolution proof growth ----------------------------------------

// BenchmarkTable3 runs the growing fifo family end to end, reporting the
// sizes whose ratio the table tracks.
func BenchmarkTable3(b *testing.B) {
	for _, inst := range []gen.Instance{gen.Fifo(8, 30), gen.Fifo(8, 60), gen.Fifo(8, 90)} {
		b.Run(inst.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := mustSolve(b, inst.F, bench.DefaultSolverOptions())
				b.ReportMetric(float64(tr.NumLiterals()), "proof-lits")
				b.ReportMetric(float64(tr.TotalResolutions()), "res-nodes")
			}
		})
	}
}

// --- Ablation: learning schemes (§5 locality/globality) ----------------------

func BenchmarkSchemes(b *testing.B) {
	inst := gen.Barrel(8, 2)
	for _, sc := range []solver.LearnScheme{solver.Learn1UIP, solver.LearnHybrid, solver.LearnDecision} {
		b.Run(sc.String(), func(b *testing.B) {
			opts := bench.DefaultSolverOptions()
			opts.Learn = sc
			for i := 0; i < b.N; i++ {
				tr := mustSolve(b, inst.F, opts)
				b.ReportMetric(float64(tr.TotalResolutions())/float64(tr.Len()), "res/clause")
			}
		})
	}
}

// --- Ablation: Proof_verification1 vs Proof_verification2 --------------------

func BenchmarkVerifyModes(b *testing.B) {
	inst := gen.Control(6, 3)
	tr := mustSolve(b, inst.F, bench.DefaultSolverOptions())
	for _, mode := range []core.Mode{core.ModeCheckAll, core.ModeCheckMarked} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Verify(inst.F, tr, core.Options{Mode: mode})
				if err != nil || !res.OK {
					b.Fatalf("%v %+v", err, res)
				}
			}
		})
	}
}

// --- Ablation: verifier BCP engines ------------------------------------------

func BenchmarkBCPEngines(b *testing.B) {
	inst := gen.Barrel(8, 3)
	tr := mustSolve(b, inst.F, bench.DefaultSolverOptions())
	for _, eng := range []core.EngineKind{core.EngineWatched, core.EngineCounting} {
		b.Run(eng.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Verify(inst.F, tr, core.Options{Engine: eng})
				if err != nil || !res.OK {
					b.Fatalf("%v %+v", err, res)
				}
			}
		})
	}
}

// --- Ablation: proof trimming --------------------------------------------------

func BenchmarkTrim(b *testing.B) {
	inst := gen.AdderEquiv(16)
	tr := mustSolve(b, inst.F, bench.DefaultSolverOptions())
	res, err := core.Verify(inst.F, tr, core.Options{Mode: core.ModeCheckMarked})
	if err != nil || !res.OK {
		b.Fatalf("%v %+v", err, res)
	}
	b.Run("trim+reverify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trimmed, err := core.Trim(tr, res)
			if err != nil {
				b.Fatal(err)
			}
			r2, err := core.Verify(inst.F, trimmed, core.Options{Mode: core.ModeCheckAll})
			if err != nil || !r2.OK {
				b.Fatalf("%v %+v", err, r2)
			}
		}
	})
}

// --- Ablation: resolution-graph checking (the baseline format) ---------------

func BenchmarkResolutionCheck(b *testing.B) {
	inst := gen.AdderEquiv(12)
	s, err := solver.NewFromFormula(inst.F, solver.Options{RecordChains: true})
	if err != nil {
		b.Fatal(err)
	}
	if s.Run() != solver.Unsat {
		b.Fatal("not unsat")
	}
	rp, err := resolution.FromSolverRun(inst.F, s.Trace(), s.Chains())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rp.InternalNodes()), "internal-nodes")
	for i := 0; i < b.N; i++ {
		if err := rp.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: clause minimization (post-2003 extension) ---------------------

func BenchmarkMinimizeLearned(b *testing.B) {
	inst := gen.Control(6, 3)
	for _, min := range []bool{false, true} {
		name := "off"
		if min {
			name = "on"
		}
		b.Run("minimize-"+name, func(b *testing.B) {
			opts := bench.DefaultSolverOptions()
			opts.MinimizeLearned = min
			for i := 0; i < b.N; i++ {
				tr := mustSolve(b, inst.F, opts)
				b.ReportMetric(float64(tr.NumLiterals())/float64(tr.Len()), "lits/clause")
			}
		})
	}
}

// --- Ablation: preprocessing ---------------------------------------------------

func BenchmarkSimplify(b *testing.B) {
	inst := gen.Counter(8, 40)
	b.Run("preprocess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := simplify.Simplify(inst.F, simplify.Default())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.F.NumClauses()), "clauses-after")
		}
	})
	b.Run("solve-raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustSolve(b, inst.F, bench.DefaultSolverOptions())
		}
	})
	b.Run("solve-preprocessed", func(b *testing.B) {
		res, err := simplify.Simplify(inst.F, simplify.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustSolve(b, res.F, bench.DefaultSolverOptions())
		}
	})
}

// --- Ablation: unsat-core methods ----------------------------------------------

func BenchmarkCoreMethods(b *testing.B) {
	inst := gen.AdderEquiv(16)
	b.Run("verification-core", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run, err := bench.RunInstance(inst, bench.DefaultSolverOptions(),
				core.Options{Mode: core.ModeCheckMarked})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(run.Verify.Core)), "core-clauses")
		}
	})
	b.Run("assumption-core", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ac, err := muscore.Extract(inst.F, bench.DefaultSolverOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(ac)), "core-clauses")
		}
	})
}

// --- Micro: binary proof format -------------------------------------------------

func BenchmarkBinaryProofIO(b *testing.B) {
	inst := gen.Barrel(8, 2)
	tr := mustSolve(b, inst.F, bench.DefaultSolverOptions())
	var bin []byte
	{
		w := &writeBuffer{}
		if err := proof.WriteBinary(w, tr); err != nil {
			b.Fatal(err)
		}
		bin = w.data
	}
	b.Run("write", func(b *testing.B) {
		b.ReportMetric(float64(len(bin)), "bytes")
		for i := 0; i < b.N; i++ {
			w := &writeBuffer{data: make([]byte, 0, len(bin))}
			if err := proof.WriteBinary(w, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := proof.ReadBinary(bytes.NewReader(bin)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Lineage: DRUP forward vs backward checking --------------------------------

func BenchmarkDRUPChecking(b *testing.B) {
	inst := gen.Control(6, 2)
	rec := drat.NewRecorder()
	opts := bench.DefaultSolverOptions()
	opts.MaxLearnedFactor = 0.2
	opts.OnLearn = rec.Learn
	opts.OnDelete = rec.Delete
	st, _, _, _, err := solver.Solve(inst.F, opts)
	if err != nil || st != solver.Unsat {
		b.Fatalf("%v %v", st, err)
	}
	p := rec.Proof()
	b.Run("forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := drat.Verify(context.Background(), inst.F, p)
			if err != nil || !res.OK {
				b.Fatalf("%v %+v", err, res)
			}
		}
	})
	b.Run("backward-marked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, trimmed, _, err := drat.VerifyBackward(inst.F, p, core.Options{})
			if err != nil || !res.OK {
				b.Fatalf("%v %+v", err, res)
			}
			b.ReportMetric(float64(trimmed.Additions()), "trimmed-additions")
		}
	})
}

// --- Application: interpolation and model checking -----------------------------

func BenchmarkInterpolation(b *testing.B) {
	inst := gen.AdderEquiv(12)
	s, err := solver.NewFromFormula(inst.F, solver.Options{RecordChains: true})
	if err != nil {
		b.Fatal(err)
	}
	if s.Run() != solver.Unsat {
		b.Fatal("not unsat")
	}
	rp, err := resolution.FromSolverRun(inst.F, s.Trace(), s.Chains())
	if err != nil {
		b.Fatal(err)
	}
	sides := interp.SplitBySources(inst.F.NumClauses(), inst.F.NumClauses()/2)
	for _, sys := range []interp.System{interp.McMillan, interp.Pudlak} {
		b.Run(sys.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ip, err := interp.ComputeWith(rp, sides, sys)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ip.Circuit.NumGates()), "interp-gates")
			}
		})
	}
}

func BenchmarkModelChecking(b *testing.B) {
	mk := func() *seq.Design {
		c := circuit.New()
		state := c.InputWord(4)
		en := c.Input()
		inc := c.Inc(state)
		next := c.MuxWord(en, inc, state)
		return &seq.Design{
			C:        c,
			Init:     make([]bool, 4),
			Next:     next,
			Property: c.NeqWord(state, c.ConstWord(4, 12)),
		}
	}
	b.Run("bmc-k10-holds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := seq.BMC(mk(), 10, bench.DefaultSolverOptions())
			if err != nil || res.Verdict != seq.Holds {
				b.Fatalf("%v %+v", err, res)
			}
		}
	})
	b.Run("bmc-k14-cex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := seq.BMC(mk(), 14, bench.DefaultSolverOptions())
			if err != nil || res.Verdict != seq.Violated {
				b.Fatalf("%v %+v", err, res)
			}
		}
	})
}

// --- Parallel verification and portfolio ----------------------------------------

func BenchmarkParallelVerify(b *testing.B) {
	inst := gen.Control(6, 3)
	tr := mustSolve(b, inst.F, bench.DefaultSolverOptions())
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.VerifyParallelOpts(inst.F, tr, core.Options{}, workers)
				if err != nil || !res.OK {
					b.Fatalf("%v %+v", err, res)
				}
			}
		})
	}
}

func BenchmarkPortfolio(b *testing.B) {
	inst := gen.PHP(7)
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustSolve(b, inst.F, bench.DefaultSolverOptions())
		}
	})
	b.Run("portfolio-3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := solver.Portfolio(inst.F, []solver.Options{
				{Learn: solver.LearnHybrid},
				{Learn: solver.Learn1UIP},
				{Learn: solver.LearnHybrid, Heuristic: solver.HeurVSIDS},
			})
			if err != nil || res.Status != solver.Unsat {
				b.Fatalf("%v %+v", err, res)
			}
		}
	})
}

// --- Baselines: the displaced technologies --------------------------------------

func BenchmarkBaselines(b *testing.B) {
	inst := gen.PHP(6)
	b.Run("cdcl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustSolve(b, inst.F, bench.DefaultSolverOptions())
		}
	})
	b.Run("dpll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, _, _, err := dpll.Solve(inst.F, 0)
			if err != nil || st != dpll.Unsat {
				b.Fatalf("%v %v", st, err)
			}
		}
	})
	b.Run("bdd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			unsat, err := bdd.Unsat(inst.F, 500_000)
			if err != nil || !unsat {
				b.Fatalf("%v %v", unsat, err)
			}
		}
	})
}

// --- Micro: solver and BCP primitives ----------------------------------------

func BenchmarkSolvePHP(b *testing.B) {
	inst := gen.PHP(7)
	for i := 0; i < b.N; i++ {
		mustSolve(b, inst.F, bench.DefaultSolverOptions())
	}
}

func BenchmarkProofIO(b *testing.B) {
	inst := gen.Barrel(8, 2)
	tr := mustSolve(b, inst.F, bench.DefaultSolverOptions())
	var buf []byte
	{
		w := &writeBuffer{}
		if err := proof.Write(w, tr); err != nil {
			b.Fatal(err)
		}
		buf = w.data
	}
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := &writeBuffer{data: make([]byte, 0, len(buf))}
			if err := proof.Write(w, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := proof.ReadString(string(buf)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type writeBuffer struct{ data []byte }

func (w *writeBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

// Command tables regenerates the paper's experimental tables and the
// repository's ablation studies on the substituted benchmark suites (see
// DESIGN.md §3 for what stands in for each 2002 instance family).
//
// Usage:
//
//	tables              # everything
//	tables -table 1     # Table 1: unsatisfiable core extraction
//	tables -table 2     # Table 2: proof verification, proof sizes
//	tables -table 3     # Table 3: resolution proof growth (fifo family)
//	tables -ablation schemes|verify|bcp|trim|core|cores|baselines
//	tables -quick       # small instances (smoke test)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/gen"
)

func main() {
	os.Exit(run())
}

func run() int {
	table := flag.Int("table", 0, "which table to regenerate (1-3; 0 = all)")
	ablation := flag.String("ablation", "", "ablation to run: schemes | verify | bcp | trim | core | cores | baselines")
	quick := flag.Bool("quick", false, "use the quick suite")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned text (tables 1-3 and schemes only)")
	flag.Parse()

	opts := bench.DefaultSolverOptions()
	suite := bench.SuiteMain()
	fifo := bench.SuiteFifo()
	if *quick {
		suite = bench.SuiteQuick()
		fifo = []gen.Instance{gen.Fifo(4, 6), gen.Fifo(4, 12), gen.Fifo(4, 18)}
	}

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "tables:", err)
		return 1
	}

	runTable := func(n int) error {
		switch n {
		case 1:
			rows, err := bench.Table1(suite, opts)
			if err != nil {
				return err
			}
			if *csvOut {
				return bench.CSVTable1(os.Stdout, rows)
			}
			fmt.Println("== Table 1: Unsatisfiable core extraction ==")
			if err := bench.RenderTable1(os.Stdout, rows); err != nil {
				return err
			}
		case 2:
			rows, err := bench.Table2(suite, opts)
			if err != nil {
				return err
			}
			if *csvOut {
				return bench.CSVTable2(os.Stdout, rows)
			}
			fmt.Println("== Table 2: Proof verification ==")
			if err := bench.RenderTable2(os.Stdout, rows); err != nil {
				return err
			}
		case 3:
			rows, err := bench.Table3(fifo, opts)
			if err != nil {
				return err
			}
			if *csvOut {
				return bench.CSVTable3(os.Stdout, rows)
			}
			fmt.Println("== Table 3: Growth of resolution proof size (fifo family) ==")
			if err := bench.RenderTable3(os.Stdout, rows); err != nil {
				return err
			}
		}
		fmt.Println()
		return nil
	}

	runAblation := func(name string) error {
		switch name {
		case "schemes":
			schemeSuite := bench.SuiteAblation()
			if *quick {
				schemeSuite = suite
			}
			rows, err := bench.SchemesAblation(schemeSuite, opts)
			if err != nil {
				return err
			}
			if *csvOut {
				return bench.CSVSchemes(os.Stdout, rows)
			}
			fmt.Println("== Ablation: learning schemes (local vs global clauses, §5) ==")
			return bench.RenderSchemes(os.Stdout, rows)
		case "verify":
			fmt.Println("== Ablation: Proof_verification1 vs Proof_verification2 ==")
			rows, err := bench.VerifyModesAblation(suite, opts)
			if err != nil {
				return err
			}
			return bench.RenderVerifyModes(os.Stdout, rows)
		case "bcp":
			fmt.Println("== Ablation: watched-literal vs counting BCP in the verifier ==")
			rows, err := bench.EngineAblation(suite, opts)
			if err != nil {
				return err
			}
			return bench.RenderEngines(os.Stdout, rows)
		case "trim":
			fmt.Println("== Ablation: proof trimming ==")
			rows, err := bench.TrimAblation(suite, opts)
			if err != nil {
				return err
			}
			return bench.RenderTrim(os.Stdout, rows)
		case "cores":
			fmt.Println("== Ablation: unsat-core methods (verification vs assumptions vs resolution vs MUS) ==")
			coreSuite := bench.SuiteAblation()
			if *quick {
				coreSuite = suite
			}
			rows, err := bench.CoreMethodsAblation(coreSuite, opts, 600)
			if err != nil {
				return err
			}
			return bench.RenderCoreMethods(os.Stdout, rows)
		case "baselines":
			fmt.Println("== Ablation: CDCL vs DPLL vs BDD baselines ==")
			baseSuite := bench.SuiteAblation()
			if *quick {
				baseSuite = suite
			}
			rows, err := bench.BaselinesAblation(baseSuite, opts, 2_000_000, 2_000_000)
			if err != nil {
				return err
			}
			return bench.RenderBaselines(os.Stdout, rows)
		case "core":
			fmt.Println("== Ablation: unsat-core fixpoint minimization ==")
			var rows []bench.CoreRow
			for _, inst := range suite {
				row, err := bench.CoreFixpoint(inst, opts, 5)
				if err != nil {
					return err
				}
				rows = append(rows, *row)
			}
			return bench.RenderCores(os.Stdout, rows)
		default:
			return fmt.Errorf("unknown ablation %q", name)
		}
	}

	switch {
	case *ablation != "":
		if err := runAblation(*ablation); err != nil {
			return fail(err)
		}
	case *table != 0:
		if err := runTable(*table); err != nil {
			return fail(err)
		}
	default:
		for n := 1; n <= 3; n++ {
			if err := runTable(n); err != nil {
				return fail(err)
			}
		}
		for _, name := range []string{"schemes", "verify", "bcp", "trim", "cores"} {
			if err := runAblation(name); err != nil {
				return fail(err)
			}
			fmt.Println()
		}
	}
	return 0
}

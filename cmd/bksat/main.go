// Command bksat is the CDCL SAT solver CLI: it reads a DIMACS CNF, decides
// satisfiability, and (for UNSAT) streams the conflict-clause proof to a
// file the moment each clause is deduced — the workflow of the paper's §1:
// "as soon as the SAT-solver hits a conflict, the corresponding conflict
// clause is output to disk".
//
// Usage:
//
//	bksat [flags] formula.cnf
//
// Flags:
//
//	-proof FILE     write the conflict-clause proof trace (UNSAT only)
//	-drat FILE      write a deletion-aware DRUP proof (UNSAT only)
//	-learn SCHEME   1uip | decision | hybrid (default hybrid)
//	-heur NAME      berkmin | vsids (default berkmin)
//	-max-conflicts N  give up after N conflicts (0 = unlimited)
//	-timeout D      give up after this long (e.g. 30s, 5m; 0 = unlimited)
//	-seed N         perturb initial activities
//	-stats          print search statistics
//	-stats-json FILE  write a JSON snapshot of every metric and the span tree
//	-progress       report search progress (conflicts) on stderr
//	-progress-every N  progress line every N conflicts (default 10000)
//	-metrics ADDR   serve live metrics over HTTP (expvar-style JSON)
//	-pprof          with -metrics: also serve net/http/pprof under /debug/pprof/
//
// Exit status: 10 for SAT (model printed as a "v" line), 20 for UNSAT,
// 0 for unknown — the conventional SAT-competition codes — plus
// 1 on usage errors, 3 on malformed/oversized input, 4 when -timeout
// expires, 6 on internal errors, and 130 on SIGINT/SIGTERM (search
// statistics for the partial run are reported before exiting).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/atomicio"
	"repro/internal/cnf"
	"repro/internal/drat"
	"repro/internal/exitcode"
	"repro/internal/obs"
	"repro/internal/solver"
)

const tool = cli.Tool("bksat")

func main() {
	os.Exit(run())
}

func run() int {
	var out cli.Outputs
	proofPath := flag.String("proof", "", "write the conflict-clause proof to this file")
	dratPath := flag.String("drat", "", "write a deletion-aware DRUP proof to this file")
	learn := flag.String("learn", "hybrid", "learning scheme: 1uip | decision | hybrid")
	heur := flag.String("heur", "berkmin", "decision heuristic: berkmin | vsids")
	maxConflicts := flag.Int64("max-conflicts", 0, "conflict budget (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "give up after this long (0 = unlimited)")
	seed := flag.Int64("seed", 0, "activity perturbation seed")
	stats := flag.Bool("stats", false, "print search statistics")
	flag.StringVar(&out.StatsJSON, "stats-json", "", "write a JSON metrics snapshot to this file")
	flag.BoolVar(&out.Progress, "progress", false, "report search progress on stderr")
	progressEvery := flag.Int64("progress-every", 10000, "progress line every N conflicts")
	flag.StringVar(&out.Metrics, "metrics", "", "serve live metrics over HTTP on this address")
	flag.BoolVar(&out.Pprof, "pprof", false, "with -metrics: also serve net/http/pprof under /debug/pprof/")
	if code, ok := cli.Parse(1, "usage: bksat [flags] formula.cnf"); !ok {
		return code
	}

	// A ^C (or a supervisor's polite kill) mid-search still reports
	// statistics for the partial run before exiting 130.
	r, err := tool.Start(*timeout, out)
	if err != nil {
		return tool.Fail(exitcode.Internal, err)
	}
	defer r.Close()
	ctx, reg := r.Ctx, r.Reg

	f, err := r.ReadFormula(flag.Arg(0))
	if err != nil {
		return tool.Fail(exitcode.BadInput, err)
	}

	opts := solver.Options{MaxConflicts: *maxConflicts, Seed: *seed, Obs: reg, Ctx: ctx}
	var prog *obs.Progress
	if out.Progress {
		learned := reg.Counter("solver.learned")
		restarts := reg.Counter("solver.restarts")
		prog = obs.NewProgress(os.Stderr, obs.ProgressConfig{
			Label: "solve",
			Unit:  "conflicts",
			Every: *progressEvery,
			Aux: func() string {
				return fmt.Sprintf("learned=%d restarts=%d", learned.Value(), restarts.Value())
			},
		})
		opts.Progress = prog
	}
	switch *learn {
	case "1uip":
		opts.Learn = solver.Learn1UIP
	case "decision":
		opts.Learn = solver.LearnDecision
	case "hybrid":
		opts.Learn = solver.LearnHybrid
	default:
		return tool.Fail(exitcode.Usage, fmt.Sprintf("unknown learning scheme %q", *learn))
	}
	switch *heur {
	case "berkmin":
		opts.Heuristic = solver.HeurBerkMin
	case "vsids":
		opts.Heuristic = solver.HeurVSIDS
	default:
		return tool.Fail(exitcode.Usage, fmt.Sprintf("unknown heuristic %q", *heur))
	}

	var proofFile *atomicio.File
	if *proofPath != "" {
		proofFile, err = atomicio.Create(*proofPath)
		if err != nil {
			return tool.Fail(exitcode.Internal, err)
		}
		// Closed uncommitted (and hence discarded) on every path except a
		// completed UNSAT run, which commits it below.
		defer proofFile.Close()
		if reg != nil {
			opts.ProofWriter = obs.CountingWriter(proofFile, reg.Counter("proof.write.bytes"))
		} else {
			opts.ProofWriter = proofFile
		}
	}
	var rec *drat.Recorder
	if *dratPath != "" {
		rec = drat.NewRecorder()
		opts.OnLearn = rec.Learn
		opts.OnDelete = rec.Delete
	}
	solveSpan := reg.StartSpan("solve")
	st, tr, model, sstats, err := solver.Solve(f, opts)
	solveSpan.End()
	if err != nil {
		return tool.Fail(exitcode.Internal, err)
	}
	prog.Finish()
	if werr := r.WriteStats(); werr != nil {
		return tool.Fail(exitcode.Internal, werr)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "c conflicts=%d decisions=%d propagations=%d restarts=%d learned=%d deleted=%d resolutions=%d\n",
			sstats.Conflicts, sstats.Decisions, sstats.Propagations, sstats.Restarts,
			sstats.Learned, sstats.Deleted, sstats.Resolutions)
	}

	switch st {
	case solver.Sat:
		fmt.Println("s SATISFIABLE")
		fmt.Print("v ")
		for v, val := range model {
			l := cnf.PosLit(cnf.Var(v))
			if !val {
				l = l.Neg()
			}
			fmt.Print(l.Dimacs(), " ")
		}
		fmt.Println("0")
		return 10
	case solver.Unsat:
		fmt.Println("s UNSATISFIABLE")
		if proofFile != nil {
			if err := proofFile.Commit(); err != nil {
				return tool.Fail(exitcode.Internal, err)
			}
			fmt.Fprintf(os.Stderr, "c proof: %d conflict clauses, %d literals, termination: %v -> %s\n",
				tr.Len(), tr.NumLiterals(), tr.Terminates(), *proofPath)
		}
		if rec != nil {
			if err := atomicio.WriteFile(*dratPath, func(out io.Writer) error {
				return drat.Write(out, rec.Proof())
			}); err != nil {
				return tool.Fail(exitcode.Internal, err)
			}
			fmt.Fprintf(os.Stderr, "c drat: %d additions, %d deletions -> %s\n",
				rec.Proof().Additions(), rec.Proof().Deletions(), *dratPath)
		}
		return 20
	default:
		fmt.Println("s UNKNOWN")
		switch {
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			fmt.Fprintln(os.Stderr, "c stopped: -timeout expired")
			return exitcode.Timeout
		case ctx.Err() != nil:
			fmt.Fprintln(os.Stderr, "c stopped: interrupted")
			return exitcode.Interrupted
		}
		return 0
	}
}

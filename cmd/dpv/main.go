// Command dpv ("deduction proof verifier") checks a conflict-clause proof of
// unsatisfiability against its CNF formula — the paper's contribution as a
// standalone tool. It implements both Proof_verification1 (-all) and
// Proof_verification2 (the default), extracts the unsatisfiable core
// (-core FILE) and can emit the trimmed proof (-trim FILE).
//
// Usage:
//
//	dpv [flags] formula.cnf proof.trace
//
// Flags:
//
//	-all            check every proof clause (Proof_verification1)
//	-engine NAME    watched | counting BCP engine (default watched)
//	-par N          fan the check over N workers (0 = sequential)
//	-sched NAME     parallel schedule with -par: "chunk" slices the trace
//	                into fixed per-worker ranges (always checks every
//	                clause, extracts no core); "dag" runs the sequential
//	                checker (honoring -all, supporting -core/-trim/
//	                -emit-lrat) and then rechecks its recorded LRAT hints
//	                on N workers over the hint dependency DAG, as
//	                lratcheck -sched dag does (default chunk; "dag"
//	                requires -par)
//	-core FILE      write the unsatisfiable core as DIMACS
//	-trim FILE      write the trimmed proof (used clauses only)
//	-emit-lrat FILE write an LRAT hinted proof of the verification
//	                (sequential or -sched dag; lratcheck re-validates it
//	                without BCP)
//	-lrat-binary    write -emit-lrat output in the compact binary format
//	-timeout D      give up after this long (e.g. 30s, 5m; 0 = unlimited)
//	-max-props N    give up after N unit propagations (0 = unlimited)
//	-max-memory N   refuse runs whose estimated footprint exceeds N bytes
//	-checkpoint FILE  write resumable checkpoints to this journal file
//	-checkpoint-every N  checkpoint interval in proof clauses (default 1000)
//	-resume         resume from the -checkpoint journal when it matches;
//	                any mismatch or corruption falls back to a full run
//	-json           emit the verification result as JSON on stdout
//	-stats-json FILE  write a JSON snapshot of every metric and the span tree
//	-progress       report progress on stderr while checking
//	-progress-every N  progress line every N proof clauses (default 1000)
//	-metrics ADDR   serve live metrics over HTTP: expvar-style JSON at
//	                /debug/vars, Prometheus text format at /metrics
//	-pprof          with -metrics: serve net/http/pprof at /debug/pprof/
//	-trace-out FILE   write a Chrome trace-event JSON flight recording
//	                  (loadable in chrome://tracing or ui.perfetto.dev)
//	-trace-jsonl FILE write the flight recording as JSONL for machine diffing
//	-trace-buf N    flight recorder ring capacity per track (default 65536)
//	-q              quiet: no statistics, exit code only
//
// Exit status:
//
//	0  proof verified
//	1  usage error
//	2  proof rejected
//	3  malformed or oversized formula/proof input
//	4  -timeout expired
//	5  resource budget (-max-props, -max-memory) exhausted
//	6  internal error (worker panic, failed output write, -sched dag
//	   recheck rejecting the recorded hints)
//	130  interrupted (SIGINT/SIGTERM); partial progress is reported first
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/atomicio"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/exitcode"
	"repro/internal/journal"
	"repro/internal/lrat"
	"repro/internal/obs"
	"repro/internal/proof"
	"repro/internal/sched"
)

const tool = cli.Tool("dpv")

func main() {
	os.Exit(run())
}

func run() int {
	var out cli.Outputs
	all := flag.Bool("all", false, "check every clause (Proof_verification1)")
	engine := flag.String("engine", "watched", "BCP engine: watched | counting")
	par := flag.Int("par", 0, "parallel workers (0 = sequential)")
	schedName := flag.String("sched", "chunk", "parallel schedule with -par: chunk | dag (sequential check, then a parallel recheck of its LRAT hints)")
	corePath := flag.String("core", "", "write the unsatisfiable core (DIMACS) to this file")
	trimPath := flag.String("trim", "", "write the trimmed proof to this file")
	lratPath := flag.String("emit-lrat", "", "write an LRAT hinted proof to this file")
	lratBinary := flag.Bool("lrat-binary", false, "write -emit-lrat output in the binary format")
	timeout := flag.Duration("timeout", 0, "give up after this long (0 = unlimited)")
	maxProps := flag.Int64("max-props", 0, "give up after N unit propagations (0 = unlimited)")
	maxMemory := flag.Int64("max-memory", 0, "refuse runs whose estimated footprint exceeds N bytes (0 = unlimited)")
	checkpointPath := flag.String("checkpoint", "", "write resumable checkpoints to this journal file")
	checkpointEvery := flag.Int("checkpoint-every", 1000, "checkpoint interval in proof clauses")
	resume := flag.Bool("resume", false, "resume from the -checkpoint journal when it matches")
	jsonOut := flag.Bool("json", false, "emit the verification result as JSON on stdout")
	flag.StringVar(&out.StatsJSON, "stats-json", "", "write a JSON metrics snapshot to this file")
	flag.BoolVar(&out.Progress, "progress", false, "report verification progress on stderr")
	progressEvery := flag.Int64("progress-every", 1000, "progress line every N proof clauses")
	flag.StringVar(&out.Metrics, "metrics", "", "serve live metrics over HTTP on this address")
	flag.BoolVar(&out.Pprof, "pprof", false, "with -metrics: also serve net/http/pprof under /debug/pprof/")
	flag.StringVar(&out.TraceOut, "trace-out", "", "write a Chrome trace-event JSON flight recording to this file")
	flag.StringVar(&out.TraceJSONL, "trace-jsonl", "", "write the flight recording as JSONL events to this file")
	flag.IntVar(&out.TraceBuf, "trace-buf", 0, "flight recorder ring capacity in events per track (0 = default 65536)")
	quiet := flag.Bool("q", false, "quiet")
	if code, ok := cli.Parse(2, "usage: dpv [flags] formula.cnf proof.trace"); !ok {
		return code
	}
	strategy, serr := sched.ParseStrategy(*schedName)
	if serr != nil {
		return tool.Fail(exitcode.Usage, serr)
	}
	dagSched := strategy == sched.StrategyDAG
	switch {
	case dagSched && *par == 0:
		return tool.Fail(exitcode.Usage, "-sched dag requires -par")
	case *par != 0 && !dagSched && (*corePath != "" || *trimPath != ""):
		return tool.Fail(exitcode.Usage, "chunked -par checks every clause without marking; -core/-trim need the sequential checker or -sched dag")
	case *par != 0 && !dagSched && *lratPath != "":
		return tool.Fail(exitcode.Usage, "-emit-lrat records one engine's propagation order; it needs the sequential checker or -sched dag")
	case *lratBinary && *lratPath == "":
		return tool.Fail(exitcode.Usage, "-lrat-binary requires -emit-lrat")
	case *resume && *checkpointPath == "":
		return tool.Fail(exitcode.Usage, "-resume requires -checkpoint")
	case *checkpointPath != "" && *checkpointEvery <= 0:
		return tool.Fail(exitcode.Usage, "-checkpoint-every must be positive")
	}

	r, err := tool.Start(*timeout, out)
	if err != nil {
		return tool.Fail(exitcode.Internal, err)
	}
	defer r.Close()
	reg := r.Reg

	f, err := r.ReadFormula(flag.Arg(0))
	if err != nil {
		return tool.Fail(exitcode.BadInput, err)
	}
	tr, err := cli.Read(flag.Arg(1), func(in io.Reader) (*proof.Trace, error) {
		return proof.ReadObserved(in, reg)
	})
	if err != nil {
		return tool.Fail(exitcode.BadInput, err)
	}

	opt := core.Options{
		Obs: reg,
		Ctx: r.Ctx,
		Budget: core.Budget{
			MaxPropagations: *maxProps,
			MaxMemoryBytes:  *maxMemory,
		},
	}
	if *all {
		opt.Mode = core.ModeCheckAll
	}
	switch *engine {
	case "watched":
		opt.Engine = core.EngineWatched
	case "counting":
		opt.Engine = core.EngineCounting
	default:
		return tool.Fail(exitcode.Usage, fmt.Sprintf("unknown engine %q", *engine))
	}
	// The DAG schedule rechecks the sequential run's hints, so it records
	// them whether or not -emit-lrat asked for the file.
	var hints *lrat.Recorder
	if *lratPath != "" || dagSched {
		hints = new(lrat.Recorder)
		opt.Hints = hints
	}

	// Checkpoint journal: resume from the old journal's last record when it
	// fits this run, else warn and run from scratch — never a wrong verdict.
	// A -sched dag run checkpoints only its sequential pass, so it journals
	// like a sequential run: either schedule resumes the other's journal.
	var jw *core.Journal
	if *checkpointPath != "" {
		workers := 0
		if *par != 0 && !dagSched {
			workers = *par
		}
		jw, err = tool.StartJournal(*checkpointPath, f, tr.Len(), journal.FingerprintTrace(tr),
			&opt, *checkpointEvery, workers, *resume)
		if err != nil {
			return tool.Fail(exitcode.Internal, err)
		}
	}

	if out.Progress {
		markedC := reg.Counter("verify.marked")
		total := tr.Len()
		opt.Progress = obs.NewProgress(os.Stderr, obs.ProgressConfig{
			Label:    "verify",
			Unit:     "clauses",
			Total:    int64(total),
			Every:    *progressEvery,
			Interval: 10 * time.Second, // heartbeat even when one check stalls
			Aux: func() string {
				if total == 0 {
					return ""
				}
				// Fraction of the proof marked as needed so far; its final
				// value is the Result.MarkedProof percentage.
				return fmt.Sprintf("mark=%.1f%%", 100*float64(markedC.Value())/float64(total))
			},
		})
	}

	var res *core.Result
	if *par != 0 && !dagSched {
		res, err = core.VerifyParallelOpts(f, tr, opt, *par)
	} else {
		res, err = core.Verify(f, tr, opt)
		if err == nil && res.OK && dagSched {
			if err = recheck(r.Ctx, f, hints, *par, reg); err != nil {
				res.Incomplete = true
			}
		}
	}
	opt.Progress.Finish()
	if jw != nil {
		// A verdict removes the journal; a stop (SIGINT, timeout, budget)
		// flushes a final record, and a later -resume restarts from the
		// last checkpoint record.
		if ferr := jw.Finish(res, err); ferr != nil {
			tool.Warn(ferr)
		}
	}
	if werr := r.WriteStats(); werr != nil {
		return tool.Fail(exitcode.Internal, werr)
	}
	if err != nil {
		tool.Warn(err)
		if res != nil && res.Incomplete {
			fmt.Printf("s UNKNOWN\n")
			fmt.Printf("c incomplete: stopped before a verdict\n")
			fmt.Printf("c proof clauses=%d tested=%d tautologies=%d propagations=%d\n",
				res.ProofClauses, res.Tested, res.Tautologies, res.Propagations)
			if res.StoppedAt >= 0 {
				fmt.Printf("c stopped at proof clause %d\n", res.StoppedAt)
			}
		}
		return exitcode.FromVerifyError(err)
	}

	if *jsonOut {
		v := core.BuildVerdict(res, opt.Mode, opt.Engine, *par, f.NumClauses())
		if err := json.NewEncoder(os.Stdout).Encode(v); err != nil {
			return tool.Fail(exitcode.Internal, err)
		}
		if !res.OK {
			return exitcode.VerifyFailed
		}
	} else if !res.OK {
		fmt.Printf("s PROOF REJECTED\nc clause %d of the proof is not implied: %v\n",
			res.FailedIndex, res.FailedClause)
		return exitcode.VerifyFailed
	}

	if !*quiet && !*jsonOut {
		fmt.Println("s PROOF VERIFIED")
		fmt.Printf("c mode=%v engine=%v termination=%v\n", opt.Mode, opt.Engine, res.Termination)
		fmt.Printf("c proof clauses=%d tested=%d (%.1f%%) skipped=%d tautologies=%d\n",
			res.ProofClauses, res.Tested, res.TestedPct(), res.Skipped, res.Tautologies)
		fmt.Printf("c unsat core: %d of %d original clauses (%.1f%%)\n",
			len(res.Core), f.NumClauses(), res.CorePct(f.NumClauses()))
		fmt.Printf("c propagations=%d\n", res.Propagations)
	}

	if *corePath != "" {
		err := atomicio.WriteFile(*corePath, func(w io.Writer) error {
			return cnf.WriteDimacs(w, core.CoreFormula(f, res))
		})
		if err != nil {
			return tool.Fail(exitcode.Internal, err)
		}
	}
	if *trimPath != "" {
		trimmed, err := core.Trim(tr, res)
		if err != nil {
			return tool.Fail(exitcode.Internal, err)
		}
		err = atomicio.WriteFile(*trimPath, func(w io.Writer) error {
			return proof.Write(w, trimmed)
		})
		if err != nil {
			return tool.Fail(exitcode.Internal, err)
		}
	}
	if *lratPath != "" && res.OK {
		if err := cli.WriteLRAT(*lratPath, hints, *lratBinary); err != nil {
			return tool.Fail(exitcode.Internal, err)
		}
	}
	return exitcode.OK
}

// recheck replays the sequential run's recorded hints with lrat.Check over
// the hint dependency DAG on the given number of workers. The hints come
// from a proof the sequential checker has just accepted, so a rejection
// means a defect, not a verdict: it surfaces as an error that maps to the
// internal exit code. A context stop comes back as the bare context error.
func recheck(ctx context.Context, f *cnf.Formula, hints *lrat.Recorder, workers int, reg *obs.Registry) error {
	lp, err := hints.Proof()
	if err != nil {
		return fmt.Errorf("recorded hint proof: %w", err)
	}
	res, err := lrat.Check(f, lp, lrat.Options{Workers: workers, Strategy: sched.StrategyDAG, Ctx: ctx, Obs: reg})
	if err != nil {
		return err
	}
	if !res.OK {
		return fmt.Errorf("recheck rejected recorded step %d: %s", res.FailedStep, res.Reason)
	}
	return nil
}

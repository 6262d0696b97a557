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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/cmd/internal/ckpt"
	"repro/cmd/internal/tracedump"
	"repro/internal/atomicio"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/exitcode"
	"repro/internal/journal"
	"repro/internal/lrat"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/proof"
	"repro/internal/sched"
	"repro/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	// ContinueOnError: a bad flag must exit Usage, not the flag package's 2,
	// which the exit-code contract reserves for a rejected proof.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	all := flag.Bool("all", false, "check every clause (Proof_verification1)")
	engine := flag.String("engine", "watched", "BCP engine: watched | counting | watched-scratch")
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
	statsJSON := flag.String("stats-json", "", "write a JSON metrics snapshot to this file")
	progress := flag.Bool("progress", false, "report verification progress on stderr")
	progressEvery := flag.Int64("progress-every", 1000, "progress line every N proof clauses")
	metricsAddr := flag.String("metrics", "", "serve live metrics over HTTP on this address")
	pprofFlag := flag.Bool("pprof", false, "with -metrics: also serve net/http/pprof under /debug/pprof/")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON flight recording to this file")
	traceJSONL := flag.String("trace-jsonl", "", "write the flight recording as JSONL events to this file")
	traceBuf := flag.Int("trace-buf", 0, "flight recorder ring capacity in events per track (0 = default 65536)")
	quiet := flag.Bool("q", false, "quiet")
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitcode.OK
		}
		return exitcode.Usage
	}

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: dpv [flags] formula.cnf proof.trace")
		return exitcode.Usage
	}
	strategy, serr := sched.ParseStrategy(*schedName)
	if serr != nil {
		fmt.Fprintln(os.Stderr, "dpv:", serr)
		return exitcode.Usage
	}
	dagSched := strategy == sched.StrategyDAG
	if dagSched && *par == 0 {
		fmt.Fprintln(os.Stderr, "dpv: -sched dag requires -par")
		return exitcode.Usage
	}
	if *par != 0 && !dagSched && (*corePath != "" || *trimPath != "") {
		fmt.Fprintln(os.Stderr, "dpv: chunked -par checks every clause without marking; -core/-trim need the sequential checker or -sched dag")
		return exitcode.Usage
	}
	if *par != 0 && !dagSched && *lratPath != "" {
		fmt.Fprintln(os.Stderr, "dpv: -emit-lrat records one engine's propagation order; it needs the sequential checker or -sched dag")
		return exitcode.Usage
	}
	if *lratBinary && *lratPath == "" {
		fmt.Fprintln(os.Stderr, "dpv: -lrat-binary requires -emit-lrat")
		return exitcode.Usage
	}
	if *resume && *checkpointPath == "" {
		fmt.Fprintln(os.Stderr, "dpv: -resume requires -checkpoint")
		return exitcode.Usage
	}
	if *checkpointPath != "" && *checkpointEvery <= 0 {
		fmt.Fprintln(os.Stderr, "dpv: -checkpoint-every must be positive")
		return exitcode.Usage
	}

	// Context: an optional deadline, and SIGINT or SIGTERM cancels so a ^C
	// — or a supervisor's polite kill — mid-run still reports how far
	// verification got before exiting 130. Built before the observability
	// surfaces so the metrics listener is tied to the same lifetime.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// The registry exists whenever any observability surface is requested;
	// nil otherwise, which turns every instrument call into a nil check.
	// The flight recorder additionally attaches when a trace dump was
	// asked for, and is flushed on every exit path — a rejected proof's or
	// an interrupted run's recording is exactly the one worth reading.
	var reg *obs.Registry
	if *statsJSON != "" || *metricsAddr != "" || *progress || *traceOut != "" || *traceJSONL != "" {
		reg = obs.New()
	}
	var rec *trace.Recorder
	if *traceOut != "" || *traceJSONL != "" {
		rec = trace.New(*traceBuf)
		reg.SetTracer(rec)
		defer func() {
			if err := tracedump.Write("dpv", *traceOut, *traceJSONL, reg, rec); err != nil {
				fmt.Fprintln(os.Stderr, "dpv:", err)
			}
		}()
	}
	if *metricsAddr != "" {
		addr, shutdown, err := obs.Serve(ctx, *metricsAddr, reg, *pprofFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpv:", err)
			return exitcode.Internal
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "c metrics: http://%v/debug/vars (Prometheus at /metrics)\n", addr)
	}

	parseSpan := reg.StartSpan("parse-formula")
	fin, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpv:", err)
		return exitcode.BadInput
	}
	defer fin.Close()
	f, err := cnf.ParseDimacs(fin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpv:", err)
		return exitcode.BadInput
	}
	parseSpan.End()

	pin, err := os.Open(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpv:", err)
		return exitcode.BadInput
	}
	defer pin.Close()
	tr, err := proof.ReadObserved(pin, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpv:", err)
		return exitcode.BadInput
	}

	opt := core.Options{
		Obs: reg,
		Ctx: ctx,
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
	case "watched-scratch":
		opt.Engine = core.EngineWatchedScratch
	default:
		fmt.Fprintf(os.Stderr, "dpv: unknown engine %q\n", *engine)
		return exitcode.Usage
	}
	// The DAG schedule rechecks the sequential run's hints, so it records
	// them whether or not -emit-lrat asked for the file.
	var hints *lrat.Recorder
	if *lratPath != "" || dagSched {
		hints = new(lrat.Recorder)
		opt.Hints = hints
	}

	// Checkpoint journal: open a matching journal first when resuming, then
	// start a fresh one for this run. The resumed record is re-appended as
	// the new journal's first record so no durable progress is ever lost,
	// and every validation failure degrades to a full run with a warning —
	// never a wrong verdict.
	var jw *journal.Writer
	if *checkpointPath != "" {
		meta := journal.Meta{
			Kind:      journal.KindVerifySeq,
			Mode:      uint8(opt.Mode),
			Engine:    uint8(opt.Engine),
			Interval:  uint32(*checkpointEvery),
			FormulaFP: journal.FingerprintFormula(f),
			ProofFP:   journal.FingerprintTrace(tr),
		}
		// A -sched dag run checkpoints only its sequential pass, so it
		// shares the sequential journal kind with zero workers: either
		// schedule resumes the other's journal.
		if *par != 0 && !dagSched {
			meta.Kind = journal.KindVerifyParallel
			meta.Mode = uint8(core.ModeCheckAll)
			meta.Workers = uint32(core.ResolveWorkers(tr.Len(), *par))
		}
		var resumeCp *core.Checkpoint
		var resumePayload []byte
		if *resume {
			payload, jerr := journal.Open(*checkpointPath, meta, reg)
			if jerr == nil {
				cp, derr := core.DecodeCheckpoint(payload)
				if derr == nil {
					derr = cp.ValidateFor(f.NumClauses(), tr.Len(), int(meta.Workers))
				}
				if derr == nil && hints != nil && cp.Hints == nil {
					// The steps recorded before the crash live only in the
					// checkpoint; a hint-free journal cannot seed the
					// recorder.
					derr = fmt.Errorf("journal was written without hint recording, hints unrecoverable")
				}
				if derr == nil {
					resumeCp = cp
					resumePayload = payload
				} else {
					jerr = derr
				}
			}
			if jerr != nil {
				fmt.Fprintf(os.Stderr, "dpv: warning: not resuming (%v); running from scratch\n", jerr)
			}
		}
		w, jerr := journal.Create(*checkpointPath, meta, reg)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "dpv:", jerr)
			return exitcode.Internal
		}
		jw = w
		defer jw.Close()
		if resumePayload != nil {
			if jerr := jw.Append(resumePayload); jerr != nil {
				fmt.Fprintln(os.Stderr, "dpv:", jerr)
				return exitcode.Internal
			}
		}
		opt.Checkpoint = core.CheckpointConfig{
			Every:  *checkpointEvery,
			Sink:   ckpt.CrashSink(jw.Append),
			Resume: resumeCp,
		}
	}

	if *progress {
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
			if err = recheck(ctx, f, hints, *par, reg); err != nil {
				res.Incomplete = true
			}
		}
	}
	opt.Progress.Finish()
	if *statsJSON != "" {
		if werr := writeStats(*statsJSON, reg); werr != nil {
			fmt.Fprintln(os.Stderr, "dpv:", werr)
			return exitcode.Internal
		}
	}
	if err != nil {
		if jw != nil {
			// Flush a final record so the journal visibly ends with a clean
			// stop (SIGINT, timeout, budget); a later -resume restarts from
			// the last checkpoint record.
			note := fmt.Sprintf("incomplete err=%v", err)
			if res != nil {
				note = fmt.Sprintf("incomplete stopped_at=%d tested=%d err=%v", res.StoppedAt, res.Tested, err)
			}
			if ferr := jw.AppendFinal([]byte(note)); ferr != nil {
				fmt.Fprintln(os.Stderr, "dpv:", ferr)
			}
		}
		fmt.Fprintln(os.Stderr, "dpv:", err)
		if res != nil && res.Incomplete {
			fmt.Printf("s UNKNOWN\n")
			fmt.Printf("c incomplete: stopped before a verdict\n")
			fmt.Printf("c proof clauses=%d tested=%d tautologies=%d propagations=%d\n",
				res.ProofClauses, res.Tested, res.Tautologies, res.Propagations)
			if res.StoppedAt >= 0 {
				fmt.Printf("c stopped at proof clause %d\n", res.StoppedAt)
			}
		}
		// Only the -sched dag recheck stops with a bare context error (core
		// returns its own sentinels); map it the way lratcheck does.
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return exitcode.Timeout
		case errors.Is(err, context.Canceled):
			return exitcode.Interrupted
		}
		return exitcode.FromVerifyError(err)
	}

	// A verdict was reached; the journal is stale by definition.
	if jw != nil {
		if rerr := jw.Remove(); rerr != nil {
			fmt.Fprintln(os.Stderr, "dpv:", rerr)
		}
	}

	if *jsonOut {
		v := service.BuildVerdict(res, opt.Mode, opt.Engine, *par, f.NumClauses())
		if err := json.NewEncoder(os.Stdout).Encode(v); err != nil {
			fmt.Fprintln(os.Stderr, "dpv:", err)
			return exitcode.Internal
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
			fmt.Fprintln(os.Stderr, "dpv:", err)
			return exitcode.Internal
		}
	}
	if *trimPath != "" {
		trimmed, err := core.Trim(tr, res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpv:", err)
			return exitcode.Internal
		}
		err = atomicio.WriteFile(*trimPath, func(w io.Writer) error {
			return proof.Write(w, trimmed)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpv:", err)
			return exitcode.Internal
		}
	}
	if *lratPath != "" && res.OK {
		if err := writeLRAT(*lratPath, hints, *lratBinary); err != nil {
			fmt.Fprintln(os.Stderr, "dpv:", err)
			return exitcode.Internal
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

// writeLRAT renders a recorder's proof to path (text or binary) atomically.
func writeLRAT(path string, rec *lrat.Recorder, binary bool) error {
	lp, err := rec.Proof()
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, func(w io.Writer) error {
		if binary {
			return lrat.WriteBinary(w, lp)
		}
		return lrat.Write(w, lp)
	})
}

func writeStats(path string, reg *obs.Registry) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return reg.WriteJSON(w)
	})
}

// Command dratcheck verifies a deletion-aware DRUP proof (as produced by
// bksat -drat, or by any solver emitting the standard text format) against
// its CNF formula by forward reverse-unit-propagation.
//
// Usage:
//
//	dratcheck formula.cnf proof.drat
//
// With -backward the proof runs through the same backward marking loop as
// dpv (core.Verify), with deletion lines undone on the way back. With
// -backward -checkpoint FILE that pass writes resumable checkpoints every
// -checkpoint-every additions; -resume restarts from the journal's last
// durable record, falling back to a full run on any mismatch or corruption.
//
// With -backward -emit-lrat FILE a verified proof is also written out in
// LRAT form — each kept step annotated with the resolution hints that make
// it checkable by unit replay alone (see cmd/lratcheck). -lrat-binary
// selects the compact binary encoding.
//
// Observability: -stats-json FILE writes a JSON snapshot of every metric
// and the span tree; -trace-out FILE records the run as Chrome trace-event
// JSON (loadable in ui.perfetto.dev), -trace-jsonl FILE as a JSONL event
// dump, with -trace-buf N sizing the flight recorder's per-track ring.
//
// Exit status: 0 verified, 1 usage errors, 2 rejected, 3 malformed or
// unreadable formula/proof input, 4 when -timeout expires, 6 internal
// errors (failed output writes), 130 on SIGINT/SIGTERM (with -backward the
// partial progress is reported and, when checkpointing, a final journal
// record is flushed so -resume can pick up where the run stopped).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/cmd/internal/ckpt"
	"repro/cmd/internal/tracedump"
	"repro/internal/atomicio"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/drat"
	"repro/internal/exitcode"
	"repro/internal/lrat"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	// ContinueOnError: a bad flag must exit Usage, not the flag package's 2,
	// which the exit-code contract reserves for a rejected proof.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	quiet := flag.Bool("q", false, "quiet")
	backward := flag.Bool("backward", false, "backward checking with marking (drat-trim style; checks only used clauses)")
	trimPath := flag.String("trim", "", "with -backward: write the trimmed proof to this file")
	corePath := flag.String("core", "", "with -backward: write the unsat core (DIMACS) to this file")
	checkpointPath := flag.String("checkpoint", "", "with -backward: write resumable checkpoints to this journal file")
	checkpointEvery := flag.Int("checkpoint-every", 1000, "checkpoint interval in proof additions")
	resume := flag.Bool("resume", false, "resume from the -checkpoint journal when it matches")
	timeout := flag.Duration("timeout", 0, "with -backward: give up after this long (0 = unlimited)")
	lratPath := flag.String("emit-lrat", "", "with -backward: write an LRAT proof with resolution hints to this file")
	lratBinary := flag.Bool("lrat-binary", false, "with -emit-lrat: write the compact binary LRAT encoding")
	statsJSON := flag.String("stats-json", "", "write a JSON metrics snapshot to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON flight recording to this file")
	traceJSONL := flag.String("trace-jsonl", "", "write the flight recording as JSONL to this file")
	traceBuf := flag.Int("trace-buf", trace.DefaultTrackEvents, "flight recorder ring capacity per track")
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitcode.OK
		}
		return exitcode.Usage
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: dratcheck [-q] [-backward [-trim out.drat] [-core out.cnf] [-checkpoint j [-resume]]] [-stats-json f] [-trace-out f] [-trace-jsonl f] formula.cnf proof.drat")
		return exitcode.Usage
	}
	if (*checkpointPath != "" || *resume) && !*backward {
		fmt.Fprintln(os.Stderr, "dratcheck: -checkpoint/-resume require -backward")
		return exitcode.Usage
	}
	if *resume && *checkpointPath == "" {
		fmt.Fprintln(os.Stderr, "dratcheck: -resume requires -checkpoint")
		return exitcode.Usage
	}
	if *checkpointPath != "" && *checkpointEvery <= 0 {
		fmt.Fprintln(os.Stderr, "dratcheck: -checkpoint-every must be positive")
		return exitcode.Usage
	}
	if *lratPath != "" && !*backward {
		fmt.Fprintln(os.Stderr, "dratcheck: -emit-lrat requires -backward (hints come from the backward pass)")
		return exitcode.Usage
	}
	if *lratBinary && *lratPath == "" {
		fmt.Fprintln(os.Stderr, "dratcheck: -lrat-binary requires -emit-lrat")
		return exitcode.Usage
	}

	// The registry exists whenever any observability surface is requested;
	// nil otherwise, which turns every instrument call into a nil check.
	// The flight recording is flushed on every exit path — a rejected
	// proof's recording is exactly the one worth reading.
	var reg *obs.Registry
	if *statsJSON != "" || *traceOut != "" || *traceJSONL != "" {
		reg = obs.New()
	}
	if *traceOut != "" || *traceJSONL != "" {
		rec := trace.New(*traceBuf)
		reg.SetTracer(rec)
		defer func() {
			if terr := tracedump.Write("dratcheck", *traceOut, *traceJSONL, reg, rec); terr != nil {
				fmt.Fprintln(os.Stderr, "dratcheck:", terr)
			}
		}()
	}

	fin, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dratcheck:", err)
		return exitcode.BadInput
	}
	defer fin.Close()
	f, err := cnf.ParseDimacs(fin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dratcheck:", err)
		return exitcode.BadInput
	}
	pin, err := os.Open(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dratcheck:", err)
		return exitcode.BadInput
	}
	defer pin.Close()
	p, err := drat.Read(pin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dratcheck:", err)
		return exitcode.BadInput
	}

	// Context: an optional deadline, and SIGINT or SIGTERM cancels so an
	// interrupted backward pass still reports how far it got (and flushes a
	// final journal record when checkpointing) before exiting 130.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var res *drat.Result
	if *backward {
		opt := core.Options{Obs: reg, Ctx: ctx}
		var hints *lrat.Recorder
		if *lratPath != "" {
			hints = new(lrat.Recorder)
			opt.Hints = hints
		}
		var jw *core.Journal
		if *checkpointPath != "" {
			// The backward pass is core.Verify's, so it journals like a
			// sequential dpv run; the proof fingerprint keeps a dpv journal
			// for the same formula from matching.
			var warn error
			jw, warn, err = core.StartJournal(*checkpointPath, f, p.TraceLen(), p.Fingerprint(),
				&opt, *checkpointEvery, 0, *resume)
			if warn != nil {
				fmt.Fprintf(os.Stderr, "dratcheck: warning: not resuming (%v); running from scratch\n", warn)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "dratcheck:", err)
				return exitcode.Internal
			}
			opt.Checkpoint.Sink = ckpt.CrashSink(opt.Checkpoint.Sink)
		}
		var trimmed *drat.Proof
		var coreIdx []int
		res, trimmed, coreIdx, err = drat.VerifyBackward(f, p, opt)
		if jw != nil {
			// A verdict removes the journal; a stop flushes a final record
			// so the journal visibly ends with a clean stop.
			if ferr := jw.Finish(nil, err); ferr != nil {
				fmt.Fprintln(os.Stderr, "dratcheck:", ferr)
			}
		}
		if err != nil && res != nil && res.Incomplete {
			// The run was cut short (signal or deadline), not broken: dump
			// the partial progress and exit per the contract.
			fmt.Fprintln(os.Stderr, "dratcheck:", err)
			fmt.Printf("s UNKNOWN\n")
			fmt.Printf("c incomplete: stopped before a verdict at step %d\n", res.StoppedAt)
			fmt.Printf("c additions=%d deletions=%d tautologies=%d propagations=%d\n",
				res.Additions, res.Deletions, res.Tautologies, res.Propagations)
			return exitcode.FromVerifyError(err)
		}
		if err == nil && res.OK {
			if *trimPath != "" {
				werr := atomicio.WriteFile(*trimPath, func(w io.Writer) error {
					return drat.Write(w, trimmed)
				})
				if werr != nil {
					fmt.Fprintln(os.Stderr, "dratcheck:", werr)
					return exitcode.Internal
				}
			}
			if *corePath != "" {
				werr := atomicio.WriteFile(*corePath, func(w io.Writer) error {
					return cnf.WriteDimacs(w, f.Restrict(coreIdx))
				})
				if werr != nil {
					fmt.Fprintln(os.Stderr, "dratcheck:", werr)
					return exitcode.Internal
				}
			}
			if hints != nil {
				werr := writeLRAT(*lratPath, hints, *lratBinary)
				if werr != nil {
					fmt.Fprintln(os.Stderr, "dratcheck:", werr)
					return exitcode.Internal
				}
			}
			if !*quiet {
				fmt.Printf("c trimmed: %d of %d additions kept; core: %d of %d clauses\n",
					trimmed.Additions(), res.Additions, len(coreIdx), f.NumClauses())
			}
		}
	} else {
		res, err = drat.Verify(f, p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dratcheck:", err)
		return exitcode.BadInput
	}
	if *statsJSON != "" {
		if serr := atomicio.WriteFile(*statsJSON, reg.WriteJSON); serr != nil {
			fmt.Fprintln(os.Stderr, "dratcheck:", serr)
			return exitcode.Internal
		}
	}
	if !res.OK {
		fmt.Printf("s PROOF REJECTED\nc step %d: %s\n", res.FailedStep, res.Reason)
		return exitcode.VerifyFailed
	}
	if !*quiet {
		fmt.Println("s PROOF VERIFIED")
		fmt.Printf("c additions=%d deletions=%d tautologies=%d rat=%d propagations=%d\n",
			res.Additions, res.Deletions, res.Tautologies, res.RATChecks, res.Propagations)
	}
	return exitcode.OK
}

// writeLRAT atomically writes the recorded hinted proof.
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

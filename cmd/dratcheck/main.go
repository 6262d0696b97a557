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
// errors (failed output writes), 130 on SIGINT/SIGTERM. In either mode a
// run stopped by the deadline or a signal reports its partial progress
// first; with -backward -checkpoint a final journal record is flushed too,
// so -resume can pick up where the run stopped.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/atomicio"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/drat"
	"repro/internal/exitcode"
	"repro/internal/lrat"
	"repro/internal/obs/trace"
)

const tool = cli.Tool("dratcheck")

func main() {
	os.Exit(run())
}

func run() int {
	var out cli.Outputs
	quiet := flag.Bool("q", false, "quiet")
	backward := flag.Bool("backward", false, "backward checking with marking (drat-trim style; checks only used clauses)")
	trimPath := flag.String("trim", "", "with -backward: write the trimmed proof to this file")
	corePath := flag.String("core", "", "with -backward: write the unsat core (DIMACS) to this file")
	checkpointPath := flag.String("checkpoint", "", "with -backward: write resumable checkpoints to this journal file")
	checkpointEvery := flag.Int("checkpoint-every", 1000, "checkpoint interval in proof additions")
	resume := flag.Bool("resume", false, "resume from the -checkpoint journal when it matches")
	timeout := flag.Duration("timeout", 0, "give up after this long (0 = unlimited)")
	lratPath := flag.String("emit-lrat", "", "with -backward: write an LRAT proof with resolution hints to this file")
	lratBinary := flag.Bool("lrat-binary", false, "with -emit-lrat: write the compact binary LRAT encoding")
	flag.StringVar(&out.StatsJSON, "stats-json", "", "write a JSON metrics snapshot to this file")
	flag.StringVar(&out.TraceOut, "trace-out", "", "write a Chrome trace-event JSON flight recording to this file")
	flag.StringVar(&out.TraceJSONL, "trace-jsonl", "", "write the flight recording as JSONL to this file")
	flag.IntVar(&out.TraceBuf, "trace-buf", trace.DefaultTrackEvents, "flight recorder ring capacity per track")
	if code, ok := cli.Parse(2, "usage: dratcheck [-q] [-backward [-trim out.drat] [-core out.cnf] [-checkpoint j [-resume]]] [-stats-json f] [-trace-out f] [-trace-jsonl f] formula.cnf proof.drat"); !ok {
		return code
	}
	switch {
	case (*checkpointPath != "" || *resume) && !*backward:
		return tool.Fail(exitcode.Usage, "-checkpoint/-resume require -backward")
	case *resume && *checkpointPath == "":
		return tool.Fail(exitcode.Usage, "-resume requires -checkpoint")
	case *checkpointPath != "" && *checkpointEvery <= 0:
		return tool.Fail(exitcode.Usage, "-checkpoint-every must be positive")
	case *lratPath != "" && !*backward:
		return tool.Fail(exitcode.Usage, "-emit-lrat requires -backward (hints come from the backward pass)")
	case *lratBinary && *lratPath == "":
		return tool.Fail(exitcode.Usage, "-lrat-binary requires -emit-lrat")
	}

	r, err := tool.Start(*timeout, out)
	if err != nil {
		return tool.Fail(exitcode.Internal, err)
	}
	defer r.Close()

	f, err := r.ReadFormula(flag.Arg(0))
	if err != nil {
		return tool.Fail(exitcode.BadInput, err)
	}
	p, err := cli.Read(flag.Arg(1), drat.Read)
	if err != nil {
		return tool.Fail(exitcode.BadInput, err)
	}

	var res *drat.Result
	var trimmed *drat.Proof
	var coreIdx []int
	var hints *lrat.Recorder
	if *backward {
		opt := core.Options{Obs: r.Reg, Ctx: r.Ctx}
		if *lratPath != "" {
			hints = new(lrat.Recorder)
			opt.Hints = hints
		}
		var jw *core.Journal
		if *checkpointPath != "" {
			// The backward pass is core.Verify's, so it journals like a
			// sequential dpv run; the proof fingerprint keeps a dpv journal
			// for the same formula from matching.
			jw, err = tool.StartJournal(*checkpointPath, f, p.TraceLen(), p.Fingerprint(),
				&opt, *checkpointEvery, 0, *resume)
			if err != nil {
				return tool.Fail(exitcode.Internal, err)
			}
		}
		res, trimmed, coreIdx, err = drat.VerifyBackward(f, p, opt)
		if jw != nil {
			// A verdict removes the journal; a stop flushes a final record
			// so the journal visibly ends with a clean stop.
			if ferr := jw.Finish(nil, err); ferr != nil {
				tool.Warn(ferr)
			}
		}
	} else {
		res, err = drat.Verify(r.Ctx, f, p)
	}
	if werr := r.WriteStats(); werr != nil {
		return tool.Fail(exitcode.Internal, werr)
	}
	if err != nil {
		tool.Warn(err)
		if res == nil || !res.Incomplete {
			return exitcode.BadInput
		}
		// The run was cut short (signal or deadline), not broken: dump the
		// partial progress and exit per the contract.
		fmt.Printf("s UNKNOWN\n")
		fmt.Printf("c incomplete: stopped before a verdict at step %d\n", res.StoppedAt)
		fmt.Printf("c additions=%d deletions=%d tautologies=%d propagations=%d\n",
			res.Additions, res.Deletions, res.Tautologies, res.Propagations)
		return exitcode.FromVerifyError(err)
	}
	if !res.OK {
		fmt.Printf("s PROOF REJECTED\nc step %d: %s\n", res.FailedStep, res.Reason)
		return exitcode.VerifyFailed
	}
	if *backward {
		if *trimPath != "" {
			werr := atomicio.WriteFile(*trimPath, func(w io.Writer) error {
				return drat.Write(w, trimmed)
			})
			if werr != nil {
				return tool.Fail(exitcode.Internal, werr)
			}
		}
		if *corePath != "" {
			werr := atomicio.WriteFile(*corePath, func(w io.Writer) error {
				return cnf.WriteDimacs(w, f.Restrict(coreIdx))
			})
			if werr != nil {
				return tool.Fail(exitcode.Internal, werr)
			}
		}
		if hints != nil {
			if werr := cli.WriteLRAT(*lratPath, hints, *lratBinary); werr != nil {
				return tool.Fail(exitcode.Internal, werr)
			}
		}
		if !*quiet {
			fmt.Printf("c trimmed: %d of %d additions kept; core: %d of %d clauses\n",
				trimmed.Additions(), res.Additions, len(coreIdx), f.NumClauses())
		}
	}
	if !*quiet {
		fmt.Println("s PROOF VERIFIED")
		fmt.Printf("c additions=%d deletions=%d tautologies=%d rat=%d propagations=%d\n",
			res.Additions, res.Deletions, res.Tautologies, res.RATChecks, res.Propagations)
	}
	return exitcode.OK
}

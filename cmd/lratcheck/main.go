// Command lratcheck validates an LRAT proof — a clausal proof whose every
// addition step carries resolution hints — against its CNF formula. Unlike
// dpv and dratcheck it performs no unit propagation search at all: each step
// replays only the clauses its hints name (each must be unit in order, the
// last falsified), so verification cost is linear in the hint text and the
// steps check independently (-par fans them across workers; -sched selects
// the fixed-chunk split or the default work-stealing schedule over the hint
// dependency DAG).
//
// Proofs in the compact binary encoding (as written by dpv/dratcheck with
// -emit-lrat -lrat-binary) are detected automatically by their magic.
//
// Usage:
//
//	lratcheck [-q] [-par N] [-sched chunk|dag] [-timeout D] [-stats-json f] formula.cnf proof.lrat
//
// Exit status: 0 verified, 1 usage errors, 2 rejected, 3 malformed or
// unreadable formula/proof input, 4 when -timeout expires, 6 internal
// errors (failed output writes), 130 on SIGINT/SIGTERM.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/atomicio"
	"repro/internal/cnf"
	"repro/internal/exitcode"
	"repro/internal/lrat"
	"repro/internal/obs"
	"repro/internal/sched"
)

func main() {
	os.Exit(run())
}

func run() int {
	// ContinueOnError: a bad flag must exit Usage, not the flag package's 2,
	// which the exit-code contract reserves for a rejected proof.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	quiet := flag.Bool("q", false, "quiet")
	par := flag.Int("par", 0, "check steps over this many workers (0 or 1 = sequential)")
	schedName := flag.String("sched", "dag", "parallel schedule with -par: chunk (fixed step ranges) | dag (work-stealing over the hint dependency DAG)")
	timeout := flag.Duration("timeout", 0, "give up after this long (0 = unlimited)")
	statsJSON := flag.String("stats-json", "", "write a JSON metrics snapshot to this file")
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitcode.OK
		}
		return exitcode.Usage
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: lratcheck [-q] [-par N] [-sched chunk|dag] [-timeout D] [-stats-json f] formula.cnf proof.lrat")
		return exitcode.Usage
	}
	if *par < 0 {
		fmt.Fprintln(os.Stderr, "lratcheck: -par must be non-negative")
		return exitcode.Usage
	}
	strategy, serr := sched.ParseStrategy(*schedName)
	if serr != nil {
		fmt.Fprintln(os.Stderr, "lratcheck:", serr)
		return exitcode.Usage
	}

	var reg *obs.Registry
	if *statsJSON != "" {
		reg = obs.New()
	}

	// Signals are caught before the (possibly large) inputs are read, so a
	// SIGTERM landing mid-parse still yields the partial-result report and
	// exit 130 instead of the runtime's default death. The -timeout clock
	// starts here too: parse time counts against the budget.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	fin, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "lratcheck:", err)
		return exitcode.BadInput
	}
	defer fin.Close()
	f, err := cnf.ParseDimacs(fin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lratcheck:", err)
		return exitcode.BadInput
	}

	pin, err := os.Open(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "lratcheck:", err)
		return exitcode.BadInput
	}
	defer pin.Close()
	p, err := readProof(pin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lratcheck:", err)
		if errors.Is(err, lrat.ErrMalformed) || errors.Is(err, lrat.ErrLimit) {
			return exitcode.BadInput
		}
		return exitcode.BadInput // unreadable input is bad input too
	}

	start := time.Now()
	res, cerr := lrat.Check(f, p, lrat.Options{Workers: *par, Strategy: strategy, Ctx: ctx, Obs: reg})
	elapsed := time.Since(start)

	if *statsJSON != "" {
		if serr := atomicio.WriteFile(*statsJSON, reg.WriteJSON); serr != nil {
			fmt.Fprintln(os.Stderr, "lratcheck:", serr)
			return exitcode.Internal
		}
	}
	if cerr != nil {
		fmt.Fprintln(os.Stderr, "lratcheck:", cerr)
		fmt.Printf("s UNKNOWN\n")
		fmt.Printf("c incomplete: stopped before a verdict at step %d\n", res.StoppedAt)
		if errors.Is(cerr, context.DeadlineExceeded) {
			return exitcode.Timeout
		}
		if errors.Is(cerr, context.Canceled) {
			return exitcode.Interrupted
		}
		return exitcode.Internal
	}
	if !res.OK {
		fmt.Printf("s PROOF REJECTED\nc step %d: %s\n", res.FailedStep, res.Reason)
		return exitcode.VerifyFailed
	}
	if !*quiet {
		fmt.Println("s PROOF VERIFIED")
		fmt.Printf("c additions=%d deletions=%d hints=%d elapsed=%s\n",
			res.Additions, res.Deletions, res.HintsScanned, elapsed.Round(time.Millisecond))
	}
	return exitcode.OK
}

// readProof parses the proof in either encoding, sniffing the binary magic.
func readProof(r io.Reader) (*lrat.Proof, error) {
	br := bufio.NewReader(r)
	prefix, err := br.Peek(4)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if lrat.DetectBinary(prefix) {
		return lrat.ReadBinary(br)
	}
	return lrat.Read(br)
}

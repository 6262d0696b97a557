// Command lratcheck validates an LRAT proof — a clausal proof whose every
// addition step carries resolution hints — against its CNF formula. Unlike
// dpv and dratcheck it performs no unit propagation search at all: each step
// replays only the clauses its hints name (each must be unit in order, the
// last falsified), so verification cost is linear in the hint text and the
// steps check independently (-par fans them across workers, scheduled
// work-stealing style over the hint dependency DAG).
//
// Proofs in the compact binary encoding (as written by dpv/dratcheck with
// -emit-lrat -lrat-binary) are detected automatically by their magic.
//
// Usage:
//
//	lratcheck [-q] [-par N] [-timeout D] [-stats-json f] formula.cnf proof.lrat
//
// Exit status: 0 verified, 1 usage errors, 2 rejected, 3 malformed or
// unreadable formula/proof input, 4 when -timeout expires, 6 internal
// errors (failed output writes), 130 on SIGINT/SIGTERM.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/exitcode"
	"repro/internal/lrat"
	"repro/internal/sched"
)

const tool = cli.Tool("lratcheck")

func main() {
	os.Exit(run())
}

func run() int {
	var out cli.Outputs
	quiet := flag.Bool("q", false, "quiet")
	par := flag.Int("par", 0, "check steps over this many workers, scheduled over the hint dependency DAG (0 or 1 = sequential)")
	timeout := flag.Duration("timeout", 0, "give up after this long (0 = unlimited)")
	flag.StringVar(&out.StatsJSON, "stats-json", "", "write a JSON metrics snapshot to this file")
	if code, ok := cli.Parse(2, "usage: lratcheck [-q] [-par N] [-timeout D] [-stats-json f] formula.cnf proof.lrat"); !ok {
		return code
	}
	if *par < 0 {
		return tool.Fail(exitcode.Usage, "-par must be non-negative")
	}

	// The -timeout clock starts here: parse time counts against the budget.
	r, err := tool.Start(*timeout, out)
	if err != nil {
		return tool.Fail(exitcode.Internal, err)
	}
	defer r.Close()

	f, err := r.ReadFormula(flag.Arg(0))
	if err != nil {
		return tool.Fail(exitcode.BadInput, err)
	}
	p, err := cli.ReadProof(r, flag.Arg(1), readProof)
	if err != nil {
		return tool.Fail(exitcode.BadInput, err)
	}

	start := time.Now()
	res, cerr := lrat.Check(f, p, lrat.Options{Workers: *par, Strategy: sched.StrategyDAG, Ctx: r.Ctx, Obs: r.Reg})
	elapsed := time.Since(start)

	if werr := r.WriteStats(); werr != nil {
		return tool.Fail(exitcode.Internal, werr)
	}
	if cerr != nil {
		tool.Warn(cerr)
		fmt.Printf("s UNKNOWN\n")
		fmt.Printf("c incomplete: stopped before a verdict at step %d\n", res.StoppedAt)
		return exitcode.FromVerifyError(cerr)
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

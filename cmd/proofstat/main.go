// Command proofstat analyzes a conflict-clause proof trace: sizes, clause
// length distribution, per-clause resolution counts and the local/global
// clause split of the paper's §5. It also converts between the text and
// binary trace formats.
//
// Hinted (LRAT) proofs get their own report: a power-of-two histogram of
// hints per addition step, antecedent fan-in (how often each clause is
// cited as a hint), and the hinted-vs-trimmed size ratio — what carrying
// the hints costs over the bare trimmed derivation.
//
// Usage:
//
//	proofstat proof.trace               # print statistics
//	proofstat -threshold 64 proof.trace # custom local/global threshold
//	proofstat proof.lrat                # hint statistics for a hinted proof
//	proofstat -to-binary out.bin proof.trace
//	proofstat -to-text out.trace proof.bin
//
// Input format is auto-detected: binary traces by the CCPF magic, binary
// LRAT by the CLRT magic, text LRAT by a .lrat filename suffix; everything
// else parses as a text trace. The conversion flags work for both kinds,
// emitting the matching trace or LRAT format.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/atomicio"
	"repro/internal/lrat"
	"repro/internal/proof"
)

func main() {
	os.Exit(run())
}

func run() int {
	threshold := flag.Int64("threshold", 0, "resolution count above which a clause is 'global' (default 32)")
	toBinary := flag.String("to-binary", "", "convert the input to binary format at this path")
	toText := flag.String("to-text", "", "convert the input to text format at this path")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: proofstat [flags] proof.trace|proof.lrat")
		return 1
	}
	path := flag.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proofstat:", err)
		return 1
	}

	if lrat.DetectBinary(data) || strings.HasSuffix(path, ".lrat") {
		return runLRAT(data, *toBinary, *toText)
	}

	var tr *proof.Trace
	if bytes.HasPrefix(data, []byte("CCPF")) {
		tr, err = proof.ReadBinary(bytes.NewReader(data))
	} else {
		tr, err = proof.Read(bytes.NewReader(data))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "proofstat:", err)
		return 1
	}

	if *toBinary != "" {
		if err := writeWith(*toBinary, tr, proof.WriteBinary); err != nil {
			fmt.Fprintln(os.Stderr, "proofstat:", err)
			return 1
		}
	}
	if *toText != "" {
		if err := writeWith(*toText, tr, proof.Write); err != nil {
			fmt.Fprintln(os.Stderr, "proofstat:", err)
			return 1
		}
	}
	if *toBinary != "" || *toText != "" {
		return 0
	}

	fmt.Printf("termination: %v\n", tr.Terminates())
	fmt.Print(tr.ComputeStats(*threshold))
	return 0
}

func runLRAT(data []byte, toBinary, toText string) int {
	var p *lrat.Proof
	var err error
	if lrat.DetectBinary(data) {
		p, err = lrat.ReadBinary(bytes.NewReader(data))
	} else {
		p, err = lrat.Read(bytes.NewReader(data))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "proofstat:", err)
		return 1
	}

	if toBinary != "" {
		err := atomicio.WriteFile(toBinary, func(w io.Writer) error { return lrat.WriteBinary(w, p) })
		if err != nil {
			fmt.Fprintln(os.Stderr, "proofstat:", err)
			return 1
		}
	}
	if toText != "" {
		err := atomicio.WriteFile(toText, func(w io.Writer) error { return lrat.Write(w, p) })
		if err != nil {
			fmt.Fprintln(os.Stderr, "proofstat:", err)
			return 1
		}
	}
	if toBinary != "" || toText != "" {
		return 0
	}

	fmt.Print(lratStats(p))
	return 0
}

// lratStats renders the hinted-proof report. All statistics are over
// addition steps; deletions carry no hints.
func lratStats(p *lrat.Proof) string {
	var b strings.Builder
	additions, deletions := p.Additions(), p.Deletions()
	fmt.Fprintf(&b, "steps: %d (%d additions, %d deletions)\n",
		len(p.Steps), additions, deletions)
	if additions == 0 {
		return b.String()
	}

	// Hints per addition step, bucketed by power of two, plus totals for
	// the mean and the size ratio.
	var totalHints, totalLits int64
	var maxHints int
	buckets := map[int]int{} // bucket index -> steps; bucket i covers [2^i, 2^(i+1))
	fanIn := map[int64]int64{}
	refuted := false
	for i := range p.Steps {
		s := &p.Steps[i]
		if s.Del {
			continue
		}
		n := len(s.Hints)
		totalHints += int64(n)
		totalLits += int64(len(s.C))
		if n > maxHints {
			maxHints = n
		}
		buckets[pow2Bucket(n)]++
		for _, h := range s.Hints {
			if h > 0 {
				fanIn[h]++
			}
		}
		if len(s.C) == 0 {
			refuted = true
		}
	}
	fmt.Fprintf(&b, "refutation step: %v\n", refuted)
	fmt.Fprintf(&b, "hints: %d total, %.1f mean/step, %d max\n",
		totalHints, float64(totalHints)/float64(additions), maxHints)

	fmt.Fprintf(&b, "hints per step (pow2 buckets):\n")
	for i := 0; i <= pow2Bucket(maxHints); i++ {
		lo := 1 << i
		if i == 0 {
			lo = 0 // zero-hint (tautology) steps fold into the first bucket
		}
		fmt.Fprintf(&b, "  [%6d,%6d): %8d\n", lo, 1<<(i+1), buckets[i])
	}

	// Antecedent fan-in: how many steps cite each clause. High fan-in
	// clauses are the proof's shared lemmas.
	var maxFan, sumFan int64
	for _, n := range fanIn {
		sumFan += n
		if n > maxFan {
			maxFan = n
		}
	}
	if len(fanIn) > 0 {
		fmt.Fprintf(&b, "antecedent fan-in: %d clauses cited, %.1f mean, %d max\n",
			len(fanIn), float64(sumFan)/float64(len(fanIn)), maxFan)
	}

	// Size ratio: tokens of the hinted proof (literals + hints + two
	// terminators per line) over the bare trimmed derivation (literals +
	// one terminator) — what shipping hints costs on the wire.
	hinted := totalLits + totalHints + 2*int64(additions)
	trimmed := totalLits + int64(additions)
	fmt.Fprintf(&b, "hinted/trimmed size: %d/%d tokens = %.2fx\n",
		hinted, trimmed, float64(hinted)/float64(trimmed))

	// The clause-dependency DAG the work-stealing scheduler would run over
	// (internal/sched): depth bounds the number of sequential rounds, max
	// width bounds useful workers, and total/critical cost is the Brent
	// upper bound on achievable speedup.
	ds := lrat.BuildDAG(p).Stats()
	fmt.Fprintf(&b, "hint DAG: %d tasks, %d edges, %d roots\n", ds.Tasks, ds.Edges, ds.Roots)
	fmt.Fprintf(&b, "  depth %d, max width %d, %.1f mean out-degree\n",
		ds.Depth, ds.MaxWidth, ds.AvgOut)
	if ds.CritCost > 0 {
		fmt.Fprintf(&b, "  critical path %d of %d hint cost = %.1fx parallelism bound\n",
			ds.CritCost, ds.TotalCost, float64(ds.TotalCost)/float64(ds.CritCost))
	}
	return b.String()
}

// pow2Bucket maps a hint count to its histogram bucket: bucket i covers
// [2^i, 2^(i+1)), with 0 folded into bucket 0.
func pow2Bucket(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

func writeWith(path string, tr *proof.Trace, w func(io.Writer, *proof.Trace) error) error {
	return atomicio.WriteFile(path, func(out io.Writer) error {
		return w(out, tr)
	})
}

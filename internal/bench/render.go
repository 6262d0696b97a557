package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// RenderTable1 prints Table 1 rows in the paper's layout.
func RenderTable1(w io.Writer, rows []Row1) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Name\tAll conflict clauses\tTested %\tClauses in initial CNF\tUnsatisfiable core %")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%d\t%.1f\n",
			r.Name, r.ConflictClauses, r.TestedPct, r.InitClauses, r.CorePct)
	}
	return tw.Flush()
}

// RenderTable2 prints Table 2 rows in the paper's layout (with an extra
// solve-time column so the "verification took 2-3x the proof generation
// time" claim is checkable from the same output).
func RenderTable2(w io.Writer, rows []Row2) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Name\tSolve time\tVerification time\tResolution graph size (nodes)\tConfl. clause proof size (lit.)\tRatio %")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%.0f\n",
			r.Name, fmtDur(r.SolveTime), fmtDur(r.VerifyTime), r.ResNodes, r.ProofLits, r.RatioPct)
	}
	return tw.Flush()
}

// RenderTable3 prints Table 3 rows.
func RenderTable3(w io.Writer, rows []Row3) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Name\tResol. proof size (nodes)\tConfl. cl. proof size (lit.)\tRatio %")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\n", r.Name, r.ResNodes, r.ProofLits, r.RatioPct)
	}
	return tw.Flush()
}

// RenderSchemes prints the learning-scheme ablation.
func RenderSchemes(w io.Writer, rows []SchemeRow) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Name\tScheme\tConflicts\t|F*|\tProof lits\tRes. nodes\tRes/clause\tLits/clause\tRatio %")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%v\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.0f\n",
			r.Name, r.Scheme, r.Conflicts, r.ProofClauses, r.ProofLits, r.ResNodes,
			r.ResPerClause, r.LitsPerClause, r.RatioPct)
	}
	return tw.Flush()
}

// RenderVerifyModes prints the Verify1-vs-Verify2 ablation.
func RenderVerifyModes(w io.Writer, rows []VerifyModeRow) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Name\t|F*|\tTested (all)\tTime (all)\tTested (marked)\tTime (marked)\tTested %\tSpeedup %")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%d\t%s\t%.1f\t%.0f\n",
			r.Name, r.ProofSize, r.Tested1, fmtDur(r.Time1), r.Tested2, fmtDur(r.Time2),
			r.TestedPct2, r.SpeedupPct)
	}
	return tw.Flush()
}

// RenderEngines prints the BCP-engine ablation.
func RenderEngines(w io.Writer, rows []EngineRow) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Name\tWatched time\tCounting time\tSlowdown x\tProps (watched)\tProps (counting)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\t%d\t%d\n",
			r.Name, fmtDur(r.TimeWatched), fmtDur(r.TimeCounting), r.SlowdownX,
			r.PropsWatched, r.PropsCount)
	}
	return tw.Flush()
}

// RenderTrim prints the proof-trimming ablation.
func RenderTrim(w io.Writer, rows []TrimRow) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Name\tOriginal |F*|\tTrimmed |F*|\tKept %\tOriginal lits\tTrimmed lits")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%d\t%d\n",
			r.Name, r.Original, r.Trimmed, r.KeptPct, r.OriginalLits, r.TrimmedLits)
	}
	return tw.Flush()
}

// RenderCoreMethods prints the core-notion comparison.
func RenderCoreMethods(w io.Writer, rows []CoreMethodsRow) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Name\tClauses\tVerification core\tAssumption core\tResolution core\tMUS")
	for _, r := range rows {
		mus := "-"
		if r.MUS > 0 {
			mus = fmt.Sprintf("%d", r.MUS)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%s\n",
			r.Name, r.Clauses, r.VerifyCore, r.AssumptionCore, r.ResolutionCore, mus)
	}
	return tw.Flush()
}

// RenderBaselines prints the CDCL/DPLL/BDD comparison.
func RenderBaselines(w io.Writer, rows []BaselineRow) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Name\tClauses\tCDCL time\tConflicts\tDPLL time\tBacktracks\tBDD time\tBDD nodes")
	for _, r := range rows {
		dpllTime := fmtDur(r.DPLLTime)
		if r.DPLLTimedOut {
			dpllTime = ">" + dpllTime + " (budget)"
		}
		bddNodes := fmt.Sprintf("%d", r.BDDNodes)
		if r.BDDBlewUp {
			bddNodes = fmt.Sprintf(">%d (blow-up)", r.BDDNodesCap)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%s\t%d\t%s\t%s\n",
			r.Name, r.Clauses, fmtDur(r.CDCLTime), r.CDCLConflicts,
			dpllTime, r.DPLLBacktracks, fmtDur(r.BDDTime), bddNodes)
	}
	return tw.Flush()
}

// RenderCores prints core-fixpoint rows.
func RenderCores(w io.Writer, rows []CoreRow) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Name\tOriginal clauses\tFirst core\tFinal core\tIterations")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n",
			r.Name, r.Original, r.FirstCore, r.FinalCore, r.Iterations)
	}
	return tw.Flush()
}

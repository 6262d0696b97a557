package core

// Verdict is the machine-readable shape of a Result — the one JSON
// contract for verification outcomes, emitted identically by dpv -json and
// by the daemon's job results. Keeping a single builder here is what makes
// the daemon's crash-recovery guarantee testable: a resumed daemon job and
// an uninterrupted dpv run must produce byte-identical verdict JSON.
type Verdict struct {
	Verdict      string  `json:"verdict"` // "verified" | "rejected"
	Mode         string  `json:"mode"`
	Engine       string  `json:"engine"`
	Workers      int     `json:"workers,omitempty"`
	Termination  string  `json:"termination"`
	ProofClauses int     `json:"proof_clauses"`
	Tested       int     `json:"tested"`
	TestedPct    float64 `json:"tested_pct"`
	Skipped      int     `json:"skipped"`
	Tautologies  int     `json:"tautologies"`
	MarkedProof  int     `json:"marked_proof"`
	CoreSize     int     `json:"core_size"`
	CorePct      float64 `json:"core_pct"`
	Propagations int64   `json:"propagations"`
	FailedIndex  int     `json:"failed_index"`            // -1 when verified
	FailedClause []int   `json:"failed_clause,omitempty"` // DIMACS literals
}

// BuildVerdict renders res as the shared JSON shape. workers is the -par
// value (0 = sequential); nOriginal is the formula's clause count, needed
// for the core percentage.
func BuildVerdict(res *Result, mode Mode, engine EngineKind, workers, nOriginal int) Verdict {
	out := Verdict{
		Verdict:      "verified",
		Mode:         mode.String(),
		Engine:       engine.String(),
		Workers:      workers,
		Termination:  res.Termination.String(),
		ProofClauses: res.ProofClauses,
		Tested:       res.Tested,
		TestedPct:    res.TestedPct(),
		Skipped:      res.Skipped,
		Tautologies:  res.Tautologies,
		MarkedProof:  res.MarkedProof,
		CoreSize:     len(res.Core),
		CorePct:      res.CorePct(nOriginal),
		Propagations: res.Propagations,
		FailedIndex:  res.FailedIndex,
	}
	if workers != 0 {
		out.Mode = ModeCheckAll.String() // parallel always checks everything
	}
	if !res.OK {
		out.Verdict = "rejected"
		for _, l := range res.FailedClause {
			out.FailedClause = append(out.FailedClause, l.Dimacs())
		}
	}
	return out
}

// Package proof defines the conflict-clause proof trace: the chronologically
// ordered sequence of conflict clauses a CDCL solver deduced while proving a
// CNF formula unsatisfiable, exactly as described in Goldberg & Novikov
// (DATE 2003). A valid trace ends either with the paper's "final conflicting
// pair" — two unit clauses with opposite literals of one variable — or, as a
// modern extension, with the empty clause (RUP/DRUP-style termination).
//
// The on-disk format is one clause per line in DIMACS literal notation
// terminated by 0 (the format a solver can stream to disk as it learns, per
// the paper: "as soon as the SAT-solver hits a conflict, the corresponding
// conflict clause is output to disk"). Comment lines start with 'c'; the
// writer records per-clause resolution counts as "c res <n>" comments, which
// the reader recovers, so the resolution-graph size lower bound of Table 2
// survives a round trip through a file.
package proof

import (
	"fmt"

	"repro/internal/cnf"
)

// Trace is a conflict-clause proof: Clauses in chronological deduction
// order. Resolutions, when non-nil, has one entry per clause giving the
// number of resolution steps the producing solver used to derive it — the
// paper's per-clause lower bound on resolution-graph size.
//
// Deletions, when non-nil, turns the trace into a DRUP proof: it has one
// entry per clause, and Deletions[i] lists the clause slots the producer
// deleted after clause i-1 was added and before clause i was (formula
// clauses are slots 0..nf-1, trace clause j is slot nf+j). It lives in
// memory only — the readers and writers never carry it — and is nil for
// every conflict-clause trace.
type Trace struct {
	Clauses     []cnf.Clause
	Resolutions []int64
	Deletions   [][]int
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Append adds a deduced clause with its resolution count.
func (t *Trace) Append(c cnf.Clause, resolutions int64) {
	t.Clauses = append(t.Clauses, c)
	t.Resolutions = append(t.Resolutions, resolutions)
}

// Len returns the number of deduced clauses (the paper's |F*|).
func (t *Trace) Len() int { return len(t.Clauses) }

// NumLiterals returns the total number of literals over all clauses — the
// paper's "conflict clause proof size".
func (t *Trace) NumLiterals() int64 {
	var n int64
	for _, c := range t.Clauses {
		n += int64(len(c))
	}
	return n
}

// TotalResolutions returns the summed per-clause resolution counts — the
// paper's lower bound on the number of internal nodes of the corresponding
// resolution-graph proof.
func (t *Trace) TotalResolutions() int64 {
	var n int64
	for _, r := range t.Resolutions {
		n += r
	}
	return n
}

// MaxVar returns the largest variable mentioned anywhere in the trace, or
// cnf.VarUndef if the trace has no literals.
func (t *Trace) MaxVar() cnf.Var {
	m := cnf.VarUndef
	for _, c := range t.Clauses {
		if v := c.MaxVar(); v > m {
			m = v
		}
	}
	return m
}

// Termination describes how a trace ends.
type Termination int

const (
	// TermNone: the trace does not end in a recognized refutation.
	TermNone Termination = iota
	// TermFinalPair: the last two clauses are unit clauses with opposite
	// literals of one variable (the paper's final conflicting pair).
	TermFinalPair
	// TermEmptyClause: the last clause is empty (RUP-style termination).
	TermEmptyClause
)

func (t Termination) String() string {
	switch t {
	case TermFinalPair:
		return "final conflicting pair"
	case TermEmptyClause:
		return "empty clause"
	default:
		return "none"
	}
}

// Terminates classifies the trace ending.
func (t *Trace) Terminates() Termination {
	n := len(t.Clauses)
	if n == 0 {
		return TermNone
	}
	if len(t.Clauses[n-1]) == 0 {
		return TermEmptyClause
	}
	if n >= 2 {
		a, b := t.Clauses[n-2], t.Clauses[n-1]
		if len(a) == 1 && len(b) == 1 && a[0] == b[0].Neg() {
			return TermFinalPair
		}
	}
	return TermNone
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	out := &Trace{Clauses: make([]cnf.Clause, len(t.Clauses))}
	for i, c := range t.Clauses {
		out.Clauses[i] = c.Clone()
	}
	if t.Resolutions != nil {
		out.Resolutions = append([]int64(nil), t.Resolutions...)
	}
	if t.Deletions != nil {
		out.Deletions = make([][]int, len(t.Deletions))
		for i, d := range t.Deletions {
			out.Deletions[i] = append([]int(nil), d...)
		}
	}
	return out
}

// Validate performs cheap structural checks: resolution annotation length
// and a recognized termination. It does not check the logical content — that
// is the verifier's job.
func (t *Trace) Validate() error {
	if t.Resolutions != nil && len(t.Resolutions) != len(t.Clauses) {
		return fmt.Errorf("proof: %d clauses but %d resolution counts",
			len(t.Clauses), len(t.Resolutions))
	}
	if t.Terminates() == TermNone {
		return fmt.Errorf("proof: trace does not end in a final conflicting pair or the empty clause")
	}
	return nil
}

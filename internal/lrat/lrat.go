// Package lrat emits, parses and checks LRAT hinted proofs (Cruz-Filipe,
// Heule et al., "Efficient Certified RAT Verification"). An LRAT proof is a
// DRUP proof in which every derived clause carries *hints*: the ordered IDs
// of the clauses whose unit replay re-derives the conflict. Hints turn
// verification from propagation (watch lists, trail search) into a linear
// scan of named antecedents — so a formula verified once with BCP can be
// re-checked arbitrarily often at a fraction of the cost, and the per-step
// checks share no state, so they parallelize trivially.
//
// ID space: original formula clauses are implicitly numbered 1..n in file
// order; every addition step introduces a strictly larger ID. The recorder
// woven into the backward checker (core.Verify, which drat.VerifyBackward
// also runs) emits engine clause ID + 1, which satisfies this by
// construction.
//
// Hint-order invariant: for an addition of clause C with hints h1..hk, after
// assigning every literal of C false, each hi in order must be *unit* under
// the accumulated assignment (all literals false except one unassigned,
// which is then assigned true) — except hk, which must be fully falsified.
// Check enforces exactly this; see the package's checker for why acceptance
// implies C is derivable by reverse unit propagation.
package lrat

import (
	"repro/internal/cnf"
)

// Step is one LRAT proof line: an addition (clause + hints) or a deletion
// (a list of clause IDs that stop being antecedent candidates).
type Step struct {
	// ID identifies the derived clause (additions) or echoes the current
	// ID counter (deletions, matching the standard text format).
	ID int64
	// Del marks a deletion line; Deleted holds the removed IDs.
	Del     bool
	Deleted []int64
	// C is the derived clause; empty means the refutation step.
	C cnf.Clause
	// Hints are the ordered antecedent IDs. Negative values are RAT hints
	// from the full LRAT format; the parsers accept them so foreign proofs
	// round-trip, but Check rejects them (this checker is RUP-only).
	Hints []int64
}

// Proof is a parsed or recorded LRAT proof.
type Proof struct {
	Steps []Step
}

// stepList collects a reader's steps in chunks and hands them over as one
// slice of exactly their number. A Step is large: a slice doubled as it
// fills allocates two to four times the steps' final size and copies most
// of them more than once, where the chunks and the final slice take twice
// the final size and one copy.
type stepList struct {
	done  [][]Step
	chunk []Step
	n     int // steps added
}

func (l *stepList) add(s Step) {
	if len(l.chunk) == cap(l.chunk) {
		if l.chunk != nil {
			l.done = append(l.done, l.chunk)
		}
		l.chunk = make([]Step, 0, min(max(2*cap(l.chunk), 16), 4096))
	}
	l.chunk = append(l.chunk, s)
	l.n++
}

// proof returns the steps added, in order, as a proof; with none, its Steps
// are nil.
func (l *stepList) proof() *Proof {
	if l.n == 0 {
		return &Proof{}
	}
	steps := make([]Step, 0, l.n)
	for _, c := range l.done {
		steps = append(steps, c...)
	}
	return &Proof{Steps: append(steps, l.chunk...)}
}

// Additions counts addition steps.
func (p *Proof) Additions() int {
	n := 0
	for i := range p.Steps {
		if !p.Steps[i].Del {
			n++
		}
	}
	return n
}

// Deletions counts deletion steps.
func (p *Proof) Deletions() int { return len(p.Steps) - p.Additions() }

// DefaultLimits is cnf.DefaultParseLimits.
//
// Deprecated: use cnf.DefaultParseLimits.
func DefaultLimits() cnf.ParseLimits { return cnf.DefaultParseLimits() }

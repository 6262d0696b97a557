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
	"errors"
	"fmt"
	"slices"

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

// addStep appends a parsed step, doubling the slice when it is full: a Step
// is large, and append's gentler growth for big slices would copy each one
// several times over.
func (p *Proof) addStep(s Step) {
	if len(p.Steps) == cap(p.Steps) {
		p.Steps = slices.Grow(p.Steps, len(p.Steps)+1)
	}
	p.Steps = append(p.Steps, s)
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

// Limits bounds what the readers accept. Zero fields fall back to the
// corresponding DefaultLimits value.
type Limits struct {
	// MaxSteps bounds the number of proof lines.
	MaxSteps int
	// MaxClauseLen bounds the literals in a single derived clause.
	MaxClauseLen int
	// MaxHints bounds the hints (or deleted IDs) on a single line.
	MaxHints int
	// MaxVar bounds the DIMACS variable magnitude.
	MaxVar int
	// MaxID bounds clause ID magnitude (keeps downstream indexing sane).
	MaxID int64
	// MaxBytes bounds how many input bytes the reader consumes.
	MaxBytes int64
}

// DefaultLimits mirror proof.DefaultLimits: generous for real proofs,
// closed to inputs that could only be hostile or corrupt.
func DefaultLimits() Limits {
	return Limits{
		MaxSteps:     64 << 20, // 67M proof lines
		MaxClauseLen: 1 << 22,  // 4M literals in one clause
		MaxHints:     1 << 24,  // 16M hints on one line
		MaxVar:       1 << 27,  // 134M variables
		MaxID:        1 << 40,  // ~1.1e12 clause IDs
		MaxBytes:     8 << 30,  // 8 GiB of input
	}
}

func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxSteps == 0 {
		l.MaxSteps = d.MaxSteps
	}
	if l.MaxClauseLen == 0 {
		l.MaxClauseLen = d.MaxClauseLen
	}
	if l.MaxHints == 0 {
		l.MaxHints = d.MaxHints
	}
	if l.MaxVar == 0 {
		l.MaxVar = d.MaxVar
	}
	if l.MaxID == 0 {
		l.MaxID = d.MaxID
	}
	if l.MaxBytes == 0 {
		l.MaxBytes = d.MaxBytes
	}
	return l
}

// ErrLimit is the errors.Is target of every *LimitError.
var ErrLimit = errors.New("lrat: input exceeds limit")

// ErrMalformed is the errors.Is target of every syntax/truncation error from
// the readers, so callers can map "bad input" to a distinct outcome.
var ErrMalformed = errors.New("lrat: malformed proof")

// LimitError reports which bound an input blew through.
type LimitError struct {
	What  string // "steps" | "clause length" | "hints" | "variable" | "id" | "bytes"
	Limit int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("lrat: input exceeds %s limit %d", e.What, e.Limit)
}

func (e *LimitError) Unwrap() error { return ErrLimit }

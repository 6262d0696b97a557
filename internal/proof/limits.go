package proof

import (
	"errors"
	"fmt"
)

// Traces come from the least trusted component of the pipeline — an
// arbitrary solver, possibly buggy, possibly adversarial — so the readers
// enforce hard limits and report typed errors instead of letting a crafted
// input drive allocation (a single literal "9000000000000000000" would
// otherwise size a variable range) or overflow the int32 literal encoding.

// Limits bounds what Read and ReadBinary accept. Zero fields fall back to
// the corresponding DefaultLimits value; to express "effectively unlimited",
// pass an explicitly huge value.
type Limits struct {
	// MaxClauses bounds the number of clauses in the trace.
	MaxClauses int
	// MaxClauseLen bounds the number of literals in a single clause.
	MaxClauseLen int
	// MaxVar bounds the DIMACS variable magnitude (and keeps it inside the
	// int32 literal encoding).
	MaxVar int
	// MaxBytes bounds how many input bytes the reader consumes.
	MaxBytes int64
}

// DefaultLimits are generous — sized for the paper's hundreds-of-megabytes
// traces with an order of magnitude to spare — while still refusing inputs
// that could only be hostile or corrupt.
func DefaultLimits() Limits {
	return Limits{
		MaxClauses:   64 << 20, // 67M clauses
		MaxClauseLen: 1 << 22,  // 4M literals in one clause
		MaxVar:       1 << 27,  // 134M variables
		MaxBytes:     8 << 30,  // 8 GiB of input
	}
}

func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxClauses == 0 {
		l.MaxClauses = d.MaxClauses
	}
	if l.MaxClauseLen == 0 {
		l.MaxClauseLen = d.MaxClauseLen
	}
	if l.MaxVar == 0 {
		l.MaxVar = d.MaxVar
	}
	if l.MaxBytes == 0 {
		l.MaxBytes = d.MaxBytes
	}
	return l
}

// ErrLimit is the errors.Is target of every *LimitError.
var ErrLimit = errors.New("proof: input exceeds limit")

// ErrMalformed is the errors.Is target of every syntax/truncation error from
// Read and ReadBinary, so callers can distinguish "bad input" from IO
// failures without string matching.
var ErrMalformed = errors.New("proof: malformed trace")

// LimitError reports which bound an input blew through.
type LimitError struct {
	What  string // "clauses" | "clause length" | "variable" | "bytes"
	Limit int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("proof: input exceeds %s limit %d", e.What, e.Limit)
}

func (e *LimitError) Unwrap() error { return ErrLimit }

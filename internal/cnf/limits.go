package cnf

import (
	"cmp"
	"errors"
	"fmt"
	"io"
)

// The input contract of every formula and proof reader. Formulas and proofs
// come from the least trusted components of the pipeline — an arbitrary
// solver, possibly buggy, possibly adversarial — so each reader enforces
// hard limits and reports typed errors instead of letting a crafted input
// drive allocation (a single literal "9000000000000000000" would otherwise
// size a variable range) or overflow the int32 literal encoding.

// ParseLimits bounds what a reader accepts from untrusted input. A reader
// honours the fields its format has use for. Zero fields fall back to
// DefaultParseLimits; to express "effectively unlimited", pass an explicitly
// huge value.
type ParseLimits struct {
	// MaxClauses bounds the number of clauses in a formula or trace, and of
	// steps in a DRUP or LRAT proof.
	MaxClauses int
	// MaxClauseLen bounds the number of literals in a single clause.
	MaxClauseLen int
	// MaxVars bounds the variable count — as declared by a DIMACS header and
	// as implied by literal magnitudes. Keeps literals inside the int32 Var
	// encoding and stops a single huge token from sizing a variable range.
	MaxVars int
	// MaxHints bounds the hints (or deleted IDs) on a single LRAT step.
	MaxHints int
	// MaxID bounds LRAT clause ID magnitudes (keeps downstream indexing sane).
	MaxID int64
	// MaxBytes bounds how many input bytes the reader consumes.
	MaxBytes int64
}

// DefaultParseLimits are generous — sized for the paper's largest
// benchmarks and hundreds-of-megabytes traces with an order of magnitude to
// spare — while still refusing inputs that could only be hostile or corrupt.
func DefaultParseLimits() ParseLimits {
	return ParseLimits{
		MaxClauses:   64 << 20, // 67M clauses or proof steps
		MaxClauseLen: 1 << 22,  // 4M literals in one clause
		MaxVars:      1 << 27,  // 134M variables
		MaxHints:     1 << 24,  // 16M hints on one LRAT step
		MaxID:        1 << 40,  // ~1.1e12 clause IDs
		MaxBytes:     8 << 30,  // 8 GiB of input
	}
}

// WithDefaults returns l with every zero field taken from
// DefaultParseLimits.
func (l ParseLimits) WithDefaults() ParseLimits {
	d := DefaultParseLimits()
	return ParseLimits{
		MaxClauses:   cmp.Or(l.MaxClauses, d.MaxClauses),
		MaxClauseLen: cmp.Or(l.MaxClauseLen, d.MaxClauseLen),
		MaxVars:      cmp.Or(l.MaxVars, d.MaxVars),
		MaxHints:     cmp.Or(l.MaxHints, d.MaxHints),
		MaxID:        cmp.Or(l.MaxID, d.MaxID),
		MaxBytes:     cmp.Or(l.MaxBytes, d.MaxBytes),
	}
}

// ErrLimit is the errors.Is target of every *LimitError.
var ErrLimit = errors.New("input exceeds limit")

// ErrMalformed is the errors.Is target of every syntax or truncation error a
// reader reports, so callers can tell bad input apart from a blown limit
// without string matching.
var ErrMalformed = errors.New("malformed input")

// LimitError reports which bound an input blew through.
type LimitError struct {
	What  string // "clauses" | "steps" | "clause length" | "variables" | "hints" | "id" | "bytes"
	Limit int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("input exceeds %s limit %d", e.What, e.Limit)
}

func (e *LimitError) Unwrap() error { return ErrLimit }

// ReadErr is the one rule for a read that failed inside the tokenizer while
// a reader was after what: the byte budget's *LimitError comes back bare,
// an input that ends there (io.EOF, io.ErrUnexpectedEOF) is a truncation,
// and any other failure — a varint that overflows, or the underlying
// reader's own error — is malformed input that still wraps its cause.
func ReadErr(err error, what string) error {
	var le *LimitError
	switch {
	case errors.As(err, &le):
		return le
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return fmt.Errorf("%w: truncated %s", ErrMalformed, what)
	}
	return fmt.Errorf("%w: %s: %w", ErrMalformed, what, err)
}

// EncodeBinaryLit maps l to the binary DRAT encoding both binary formats
// use: (|d| << 1) | (d < 0) for DIMACS value d, which is l + 2. It is always
// >= 2, so a 0 byte can terminate a clause.
func EncodeBinaryLit(l Lit) uint64 { return uint64(l) + 2 }

// DecodeBinaryLit inverts EncodeBinaryLit, refusing magnitudes beyond
// maxVars on the uint64 before narrowing — a 2^40 "variable" must not wrap
// the int32 literal encoding into nonsense (or a panic).
func DecodeBinaryLit(u uint64, maxVars int) (Lit, error) {
	mag := u >> 1
	if mag == 0 {
		return LitUndef, fmt.Errorf("%w: binary literal 0 outside terminator position", ErrMalformed)
	}
	if mag > uint64(maxVars) {
		return LitUndef, &LimitError{What: "variables", Limit: int64(maxVars)}
	}
	return Lit(u - 2), nil
}

// Package exitcode defines the outcome-class contract shared by the cmd/
// binaries and the dpvd service (whose job statuses map onto these codes
// via internal/service), so scripts and CI harnesses can tell outcome
// classes apart without parsing output. The SAT-competition codes (10/20)
// keep their conventional meaning; everything else is disjoint from them.
package exitcode

import (
	"context"
	"errors"

	"repro/internal/core"
)

const (
	// OK: the tool did what was asked (for checkers: proof verified).
	OK = 0
	// Usage: bad flags or arguments.
	Usage = 1
	// VerifyFailed: input was well-formed but the proof was rejected.
	VerifyFailed = 2
	// BadInput: a formula or proof file was missing, unreadable, malformed,
	// or beyond the parser's resource limits.
	BadInput = 3
	// Timeout: a -timeout deadline expired before a verdict.
	Timeout = 4
	// Budget: a resource budget (e.g. -max-props) was exhausted.
	Budget = 5
	// Internal: a defect in the tool itself — a recovered worker panic, a
	// failed output write, an invariant violation.
	Internal = 6
	// Sat / Unsat: the conventional SAT-competition solver results.
	Sat   = 10
	Unsat = 20
	// Interrupted: stopped by SIGINT; 128+SIGINT per shell convention.
	Interrupted = 130
)

// FromVerifyError maps the typed errors of core.Verify/VerifyParallelOpts
// onto exit codes, as well as the bare context errors with which the
// checkers outside core (drat.Verify, lrat.Check) stop. A nil error maps to
// OK.
func FromVerifyError(err error) int {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, core.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return Timeout
	case errors.Is(err, core.ErrCancelled), errors.Is(err, context.Canceled):
		return Interrupted
	case errors.Is(err, core.ErrBudget):
		return Budget
	case errors.Is(err, core.ErrBadTrace):
		return BadInput
	default:
		return Internal
	}
}

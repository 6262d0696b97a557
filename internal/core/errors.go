package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/proof"
)

// Sentinel errors for runs that stop before reaching a verdict. All of them
// come back alongside a partial Result (Result.Incomplete == true), so
// callers can report how far the run got.
var (
	// ErrCancelled: Options.Ctx was cancelled.
	ErrCancelled = errors.New("core: verification cancelled")
	// ErrDeadline: Options.Ctx's deadline passed.
	ErrDeadline = errors.New("core: verification deadline exceeded")
	// ErrBudget is the errors.Is target of every *BudgetError.
	ErrBudget = errors.New("core: resource budget exceeded")
)

// Budget bounds the resources a verification may consume. Zero fields are
// unlimited. Exceeding any bound stops the run with a *BudgetError wrapped
// around ErrBudget and a partial Result — a graceful "too expensive" outcome
// distinct from both rejection and structural failure.
type Budget struct {
	// MaxPropagations bounds the total number of BCP-implied assignments
	// over the whole run (summed across workers in parallel mode).
	MaxPropagations int64
	// MaxTraceClauses rejects traces longer than this before any engine
	// state is built.
	MaxTraceClauses int
	// MaxMemoryBytes bounds the *estimated* footprint of the clause
	// database(s), per EstimateVerifyBytes (times workers in parallel
	// mode). An estimate, not an enforcement of the process RSS.
	MaxMemoryBytes int64
}

// BudgetError reports which resource bound a run exceeded.
// errors.Is(err, ErrBudget) matches it.
type BudgetError struct {
	Resource string // "propagations" | "trace-clauses" | "memory-estimate"
	Limit    int64
	Used     int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: %s budget exceeded: %d > %d", e.Resource, e.Used, e.Limit)
}

func (e *BudgetError) Unwrap() error { return ErrBudget }

// WorkerPanicError reports a panic inside a parallel verification worker,
// attributed to the worker and the half-open chunk of trace indices it was
// checking. Attempts counts how many engines tried the chunk (primary plus
// fallback retries) before giving up.
type WorkerPanicError struct {
	Worker   int
	Lo, Hi   int
	Attempts int
	Value    any
	Stack    []byte
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("core: worker %d panicked verifying trace chunk [%d,%d) after %d attempt(s): %v",
		e.Worker, e.Lo, e.Hi, e.Attempts, e.Value)
}

// ctxErr maps a context's state onto the package's sentinel errors; nil
// context or live context map to nil.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	switch err := ctx.Err(); err {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return ErrDeadline
	default:
		return ErrCancelled
	}
}

// countStopErr bumps the obs counter matching the reason a run stopped
// early; unknown reasons (worker panics) land on verify.internal_errors.
// The same classification lands in the flight recorder as a stop.* instant,
// so the trace timeline shows exactly when and why a run was cut short.
func countStopErr(reg *obs.Registry, err error) {
	var what string
	switch {
	case errors.Is(err, ErrDeadline):
		what = "deadline_exceeded"
	case errors.Is(err, ErrCancelled):
		what = "cancelled"
	case errors.Is(err, ErrBudget):
		what = "budget_exceeded"
	default:
		what = "internal_errors"
	}
	reg.Counter("verify." + what).Inc()
	reg.TraceTrack().Instant("stop."+what, 0)
}

// verifyStopFunc builds the stop hook shared by a check loop and its BCP
// engine: context cancellation/deadline first, then the propagation budget
// read through props (which may aggregate several engines).
func verifyStopFunc(ctx context.Context, maxProps int64, props func() int64) func() error {
	return func() error {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if maxProps > 0 {
			if used := props(); used > maxProps {
				return &BudgetError{Resource: "propagations", Limit: maxProps, Used: used}
			}
		}
		return nil
	}
}

// EstimateVerifyBytes estimates one BCP engine's memory footprint for
// verifying t against f, from the watched engine's layout: each literal is
// one arena word; each clause adds its two arena header words, an offset
// table entry and two watch-list entries (doubled for append slack) in each
// of the two list sets, since MarkCore moves them into the core lists and
// the plain lists keep their capacity; each variable adds its two
// per-literal values and watch-list headers in both sets, its reason, trail
// position and scratch marks. The constants are deliberately round — the
// estimate guards against order-of-magnitude surprises (a 10 GB trace on a
// 4 GB box), not byte-exact accounting — and a test holds the estimate
// above a built watched engine's heap with every clause marked core and
// below 2x an unmarked one's. The counting engine, an ablation baseline,
// takes up to about 1.4x the estimate.
func EstimateVerifyBytes(f *cnf.Formula, t *proof.Trace) int64 {
	const (
		bytesPerLit    = 4            // one arena word
		bytesPerClause = 8 + 4 + 2*32 // id and meta words, offset entry, two 8-byte watchers with 2x append slack per list set
		bytesPerVar    = 120          // val, reason, varPos, seen, litMark, trail, two watch-list headers per list set
	)
	nVars := int64(f.NumVars)
	if mv := t.MaxVar(); int64(mv)+1 > nVars {
		nVars = int64(mv) + 1
	}
	lits := int64(numLits(f.Clauses)) + t.NumLiterals()
	nClauses := int64(len(f.Clauses) + len(t.Clauses))
	return lits*bytesPerLit + nClauses*bytesPerClause + nVars*bytesPerVar
}

// checkBudgetUpfront enforces the bounds knowable before building engine
// state. workers scales the memory estimate (each parallel worker builds a
// private database).
func checkBudgetUpfront(f *cnf.Formula, t *proof.Trace, b Budget, workers int) error {
	if b.MaxTraceClauses > 0 && len(t.Clauses) > b.MaxTraceClauses {
		return &BudgetError{Resource: "trace-clauses", Limit: int64(b.MaxTraceClauses), Used: int64(len(t.Clauses))}
	}
	if b.MaxMemoryBytes > 0 {
		if est := EstimateVerifyBytes(f, t) * int64(workers); est > b.MaxMemoryBytes {
			return &BudgetError{Resource: "memory-estimate", Limit: b.MaxMemoryBytes, Used: est}
		}
	}
	return nil
}

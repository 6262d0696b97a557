// Package bcp implements the Boolean Constraint Propagation engines used by
// the proof verifier. Per the paper, BCP is "the only procedure one needs to
// implement to verify a conflict clause proof": to check a conflict clause C
// against a clause database, falsify C's literals and propagate; C is
// implied exactly when propagation reaches a conflict.
//
// The package deliberately shares no code with internal/solver — the entire
// point of proof verification is an independent check, so the verifier rests
// on its own propagation machinery.
//
// Two engines are provided behind the Propagator interface:
//
//   - Engine: two-watched-literal propagation (the paper's §6 choice,
//     "a conflict clause proof contains a large number of long clauses,
//     which is exactly the case when using watched literals is especially
//     effective").
//   - Counting: a naive counter-based propagator kept as the ablation
//     baseline so the benefit of watched literals is measurable.
//
// Both support deactivating clauses, which is how the verifier pops clauses
// off the proof stack while scanning it in reverse chronological order.
package bcp

import (
	"errors"

	"repro/internal/cnf"
	"repro/internal/obs/trace"
)

// ID identifies a clause inside a Propagator. IDs are assigned densely in
// Add order, so the verifier can map them back to "original formula clause
// i" or "proof clause j" by simple offset arithmetic.
type ID int32

// NoConflict is returned by Refute when propagation completes without
// finding a conflict.
const NoConflict ID = -1

// ReasonAssumption marks a variable assigned by the refutation assumptions
// rather than by a clause.
const reasonAssumption ID = -1

// Propagator is the verifier-facing propagation interface.
type Propagator interface {
	// Add inserts a clause and returns its ID. The clause is copied and
	// normalized internally; tautologies are accepted but never propagate.
	Add(c cnf.Clause) ID
	// Deactivate removes the clause from future propagations for good (the
	// verifier pops the proof stack this way). Deactivating an inactive
	// clause is a no-op.
	Deactivate(id ID)
	// Reactivate brings back a clause that Engine.Suspend took out. A
	// clause taken out by Deactivate, whose propagation-structure entries
	// may already be gone, yields ErrNotReactivable.
	Reactivate(id ID) error
	// Refute assigns every literal of c to false, propagates the active
	// clause database and returns the ID of a falsified clause, or
	// NoConflict when propagation completes quietly (which means c is NOT
	// implied and the proof is bogus). Passing an empty clause checks
	// whether the database is refuted by unit propagation alone.
	//
	// Engines may keep the database's assumption-free propagation fixpoint
	// (the "root trail") alive between calls; the observable contract is
	// unchanged — each Refute behaves as if run against a fresh engine
	// holding the currently active clauses.
	//
	// Refute reports selfContradictory=true (with conflict==NoConflict)
	// when c contains complementary literals, i.e. cannot be falsified;
	// such a clause is a tautology and trivially implied.
	Refute(c cnf.Clause) (conflict ID, selfContradictory bool)
	// WalkConflict visits every clause involved in deriving the conflict
	// returned by the immediately preceding Refute call: the falsified
	// clause itself plus, transitively, the reason clause of every
	// propagated variable feeding it. Assumption-assigned variables have no
	// reason and terminate the walk, matching the paper's Conflict_analysis.
	// Valid only until the next Refute/Add/Deactivate call.
	WalkConflict(conflict ID, visit func(ID))
	// ConflictHints returns the clauses WalkConflict would visit, ordered so
	// the conflict is re-derivable by unit replay alone: each propagated
	// variable's reason clause at its trail position, ascending, with the
	// falsified clause last and replay-satisfied reasons dropped (see
	// hints.go). refuted must be the clause passed to the preceding Refute
	// (nil for a root refutation). The hints are appended to dst and the
	// extended slice returned; like WalkConflict, the result is valid only
	// until the next Refute/Add/Deactivate call.
	ConflictHints(conflict ID, refuted cnf.Clause, dst []ID) []ID
	// Propagations returns the cumulative number of implied assignments.
	Propagations() int64
	// SetStop installs a cooperative stop hook, polled about every
	// stopPollEvery dequeued trail literals during propagation and once at
	// the start of every Refute. A non-nil return aborts the Refute in
	// progress; the conflict result of an aborted Refute is meaningless and
	// the cause is retrievable via StopErr until the next Refute. A nil
	// hook (the default) removes the check from the hot path entirely.
	SetStop(func() error)
	// StopErr returns the error that aborted the last Refute, or nil when
	// it ran to completion. Callers that install a stop hook must consult
	// StopErr before interpreting a Refute result.
	StopErr() error
	// SetTrace installs a flight-recorder lane: each Refute then emits its
	// per-check work deltas (propagations plus watcher visits or occurrence
	// touches, depending on the engine) as counter events, at one ring
	// append per counter per Refute — coarse enough to stay off the
	// propagation hot path. A nil lane (the default) reduces the cost to
	// one nil check per Refute.
	SetTrace(t *trace.Track)
	// Stats returns the cumulative work counters (propagations, conflicts,
	// clause visits). Counters are plain per-engine integers maintained on
	// the hot path, so reading them costs nothing and needs no enabling.
	Stats() Stats
	// NumClauses returns how many clauses were added.
	NumClauses() int
	// Reset removes every clause and assignment and zeroes the work
	// counters, keeping the engine's capacity: Adding clauses afterwards
	// reaches the state a new engine given the same Adds holds. The stop
	// hook and trace lane stay installed.
	Reset()
}

// ErrNotReactivable is returned by Reactivate for a clause taken out by
// Deactivate rather than Engine.Suspend: its list entries may already be
// gone.
var ErrNotReactivable = errors.New("bcp: Reactivate requires a suspended clause")

// stopPollEvery is how many dequeued trail literals may pass between polls
// of the stop hook. Small enough that even adversarial formulas cannot keep
// propagating for long past a cancellation; large enough that the hook costs
// nothing measurable on the hot path.
const stopPollEvery = 64

// stopState implements the SetStop/StopErr/SetTrace slice of Propagator;
// both engines embed it and poll it from their propagation loops.
type stopState struct {
	stop      func() error
	stopErr   error
	countdown int
	trace     *trace.Track
}

// SetStop implements Propagator.
func (s *stopState) SetStop(f func() error) { s.stop = f; s.countdown = 0 }

// SetTrace implements Propagator.
func (s *stopState) SetTrace(t *trace.Track) { s.trace = t }

// StopErr implements Propagator.
func (s *stopState) StopErr() error { return s.stopErr }

// beginRefute clears a previous abort and polls once, so a condition that
// already holds (expired deadline, exhausted budget) aborts the Refute
// before any propagation work.
func (s *stopState) beginRefute() bool {
	s.stopErr = nil
	if s.stop == nil {
		return false
	}
	if err := s.stop(); err != nil {
		s.stopErr = err
		return true
	}
	s.countdown = stopPollEvery
	return false
}

// poll reports whether the stop hook demands an abort; the hook itself runs
// only every stopPollEvery calls.
func (s *stopState) poll() bool {
	if s.stop == nil {
		return false
	}
	if s.countdown--; s.countdown > 0 {
		return false
	}
	s.countdown = stopPollEvery
	if err := s.stop(); err != nil {
		s.stopErr = err
		return true
	}
	return false
}

// Stats aggregates a propagator's cumulative work counters. Propagations
// and Refutations are common to both engines; WatcherVisits counts
// watch-list entries examined by the watched-literal engine and OccTouches
// counts occurrence-list entries touched by the counting engine — the two
// numbers whose ratio quantifies the paper's §6 argument for watched
// literals on proofs full of long clauses.
type Stats struct {
	// Propagations is the number of implied assignments.
	Propagations int64
	// Refutations is the number of Refute calls.
	Refutations int64
	// Conflicts is the number of Refute calls that found a conflict (on a
	// correct proof this equals Refutations minus tautologies).
	Conflicts int64
	// WatcherVisits counts watch-list entries examined (watched engine).
	WatcherVisits int64
	// OccTouches counts occurrence-list entries touched (counting engine).
	OccTouches int64
}

// value codes: 0 unassigned, +1 true, -1 false.
func litValue(assign []int8, l cnf.Lit) int8 {
	v := assign[l.Var()]
	if l.IsNeg() {
		return -v
	}
	return v
}

// assignLit records that l is true.
func assignLit(assign []int8, l cnf.Lit) {
	if l.IsNeg() {
		assign[l.Var()] = -1
	} else {
		assign[l.Var()] = 1
	}
}

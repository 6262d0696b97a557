// Package core implements the paper's primary contribution: verification of
// conflict-clause proofs of unsatisfiability (Goldberg & Novikov, DATE 2003)
// and, as a by-product, extraction of an unsatisfiable core of the original
// formula.
//
// A conflict-clause proof F* is the chronologically ordered sequence of
// conflict clauses a CDCL solver deduced. A clause C of F* was deduced
// correctly iff falsifying C (assigning all its literals to 0) and running
// BCP over F plus the clauses of F* deduced before C yields a conflict —
// i.e. C passes the reverse-unit-propagation check. Two procedures are
// provided:
//
//   - ModeCheckAll — the paper's Proof_verification1: every clause of F* is
//     checked.
//   - ModeCheckMarked — the paper's Proof_verification2: clauses are checked
//     in reverse chronological order and a clause is checked only if a
//     previous check's conflict analysis marked it as used. Initially only
//     the trace's terminating clauses are marked. Unmarked clauses never
//     contributed to deducing the final conflicting pair and are skipped.
//
// In either mode every BCP conflict is analyzed and the clauses involved are
// marked; the marked clauses of the original formula F form an
// unsatisfiable core of F. A run that records no LRAT hints also
// propagates over marked clauses first, as DRAT-trim does, so later
// conflicts reuse the core instead of growing it.
//
// A trace with a deletion schedule (proof.Trace.Deletions) is a DRUP proof:
// the sequential loop then undoes each deletion on its way back, so every
// check sees the clauses that were live when the producer derived the
// clause, as in drat-trim. internal/drat reaches this loop that way.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bcp"
	"repro/internal/cnf"
	"repro/internal/lrat"
	"repro/internal/obs"
	"repro/internal/proof"
)

// Mode selects the verification procedure.
type Mode int

const (
	// ModeCheckMarked is Proof_verification2: verify only marked clauses
	// (the efficient default; also what extracts a small core).
	ModeCheckMarked Mode = iota
	// ModeCheckAll is Proof_verification1: verify every clause of F*.
	ModeCheckAll
)

func (m Mode) String() string {
	if m == ModeCheckAll {
		return "check-all"
	}
	return "check-marked"
}

// EngineKind selects the BCP implementation backing the verifier.
type EngineKind int

const (
	// EngineWatched uses two-watched-literal propagation with a persistent
	// root trail: the formula's unit-propagation fixpoint is computed once
	// and reused across checks, each Refute pushing only its assumption
	// literals (default).
	EngineWatched EngineKind = iota
	// EngineCounting uses the naive counter-based propagator (ablation).
	EngineCounting
)

func (k EngineKind) String() string {
	if k == EngineCounting {
		return "counting"
	}
	return "watched"
}

// Options configures Verify.
//
// Mode is honored by sequential Verify only; parallel runs cannot honor it
// — marking is inherently sequential, so VerifyParallelOpts checks every
// clause regardless of Mode — and Checkpoint and Hints are sequential only.
// See VerifyParallelOpts.
type Options struct {
	Mode   Mode
	Engine EngineKind

	// Ctx, when non-nil, bounds the run: cancellation or an expired
	// deadline stops the check loop (and propagation inside a single BCP
	// call) promptly, returning a partial Result together with
	// ErrCancelled or ErrDeadline. A nil Ctx never stops.
	Ctx context.Context

	// Budget bounds the resources the run may consume; exceeding a bound
	// returns a partial Result together with a *BudgetError.
	Budget Budget

	// Obs, when non-nil, receives live metrics and spans: a "verify" span
	// with build-db / check-loop / core-extract children, verify.* counters
	// (checked, skipped, tautologies, marked) updated per clause, a
	// verify.props_per_check histogram, and the engine's bcp.* totals. A
	// nil Obs (the default) costs one nil check per instrument call.
	Obs *obs.Registry

	// Progress, when non-nil, is stepped once per proof clause processed
	// (checked, skipped or tautological alike), so its total should be the
	// trace length.
	Progress *obs.Progress

	// Checkpoint configures durable progress records and resume; the zero
	// value disables both and leaves the check loop byte-for-byte
	// unchanged. Sequential Verify only; VerifyParallelOpts rejects any
	// other value with ErrBadCheckpoint. See checkpoint.go for the
	// determinism contract.
	Checkpoint CheckpointConfig

	// Hints, when non-nil, records an LRAT hint step for every successfully
	// checked clause — plus a synthetic final empty-clause step when the
	// trace terminates in a conflicting pair — using engine clause ID + 1 as
	// the LRAT ID. Sequential Verify only; VerifyParallelOpts rejects it
	// (hints follow one engine's propagation order, and chunked workers
	// each have their own). When checkpointing, the recorder state rides in
	// every checkpoint so a resumed run emits byte-identical LRAT; resuming
	// with Hints set from a checkpoint recorded without them, or without
	// Hints from one recorded with them, fails with ErrBadCheckpoint.
	//
	// Hints also select the propagation order. Without them the watched
	// engine propagates core-first (clauses already marked before the
	// rest), which tests and marks fewer clauses; with them they keep input
	// order, whose hint chains are shorter (DESIGN.md §6b).
	Hints *lrat.Recorder
}

// Result reports the outcome of a verification run.
type Result struct {
	// OK is true when every checked clause passed, i.e. the proof is a
	// correct proof of unsatisfiability of F.
	OK bool
	// FailedIndex is the index into the trace of the first clause whose
	// check failed, or -1. FailedClause is that clause.
	FailedIndex  int
	FailedClause cnf.Clause
	// Termination records how the trace ended.
	Termination proof.Termination

	// ProofClauses is |F*|; Tested counts clauses actually BCP-checked;
	// Skipped counts clauses skipped as unmarked (ModeCheckMarked) and
	// Tautologies counts clauses that were trivially implied.
	ProofClauses int
	Tested       int
	Skipped      int
	Tautologies  int

	// MarkedProof counts marked clauses of F*; UsedProof flags, per trace
	// clause, whether it was marked as contributing to the refutation; Core
	// lists the indices of the original formula's clauses that form the
	// unsatisfiable core.
	MarkedProof int
	UsedProof   []bool
	Core        []int

	// Propagations is the total number of BCP-implied assignments.
	Propagations int64

	// Incomplete is true when the run stopped before reaching a verdict
	// (cancellation, deadline, budget, or a worker failure); the counters
	// above then describe the work done so far and OK is meaningless.
	// StoppedAt is the trace index the sequential check loop had reached
	// when it stopped, or -1.
	Incomplete bool
	StoppedAt  int
}

// TestedPct returns Tested as a percentage of ProofClauses (the paper's
// Table 1 "Tested" column).
func (r *Result) TestedPct() float64 {
	if r.ProofClauses == 0 {
		return 0
	}
	return 100 * float64(r.Tested) / float64(r.ProofClauses)
}

// CorePct returns the core size as a percentage of nOriginal clauses (the
// paper's Table 1 "Unsatisfiable core" column).
func (r *Result) CorePct(nOriginal int) float64 {
	if nOriginal == 0 {
		return 0
	}
	return 100 * float64(len(r.Core)) / float64(nOriginal)
}

// ErrBadTrace wraps structural trace problems (as opposed to verification
// failures, which are reported via Result.OK=false).
var ErrBadTrace = errors.New("core: malformed proof trace")

// Verify checks that the trace is a correct conflict-clause proof of the
// unsatisfiability of f. A structural problem with the trace (wrong
// termination, inconsistent annotations) yields an error; a logically
// incorrect proof yields Result.OK == false with the offending clause
// identified, matching the paper's promise that "one can point to a clause
// of the proof whose deduction is questionable".
//
// A trace with a deletion schedule always runs on the watched engine, which
// suspends the deleted clauses so the backward walk can bring them back;
// asking for EngineCounting with one is an ErrBadTrace error, as it cannot
// undo a deletion.
func Verify(f *cnf.Formula, t *proof.Trace, opt Options) (*Result, error) {
	term := t.Terminates()
	if term == proof.TermNone {
		return nil, fmt.Errorf("%w: trace must end in a final conflicting pair or the empty clause", ErrBadTrace)
	}
	if t.Resolutions != nil && len(t.Resolutions) != len(t.Clauses) {
		return nil, fmt.Errorf("%w: %d clauses but %d resolution annotations",
			ErrBadTrace, len(t.Clauses), len(t.Resolutions))
	}
	dels := t.Deletions
	if err := checkDeletions(f, t, opt.Engine); err != nil {
		return nil, err
	}
	if err := checkBudgetUpfront(f, t, opt.Budget, 1); err != nil {
		countStopErr(opt.Obs, err)
		return &Result{FailedIndex: -1, StoppedAt: -1, Termination: term,
			ProofClauses: len(t.Clauses), Incomplete: true}, err
	}
	nf := len(f.Clauses)
	m := len(t.Clauses)
	ck := opt.Checkpoint
	if ck.Resume != nil {
		if !ck.enabled() {
			return nil, fmt.Errorf("%w: resume requires a checkpoint interval", ErrBadCheckpoint)
		}
		if err := ck.Resume.fit(nf, m, opt.Hints != nil); err != nil {
			return nil, err
		}
		if ck.Resume.Hints != nil {
			*opt.Hints = *ck.Resume.Hints
		}
	}

	var eng bcp.Propagator
	// coreEng is eng when it propagates core-first: a watched engine on a
	// run that records no hints. Every marked clause is then passed to its
	// MarkCore, so conflicts prefer clauses already in the core. Hinted runs
	// keep input order, which keeps their LRAT small (DESIGN §6b).
	var coreEng *bcp.Engine
	var statsBase bcp.Stats // work folded in from earlier epochs and the resumed run
	var res *Result
	span := opt.Obs.StartSpan("verify")
	defer span.End()
	track := opt.Obs.TraceTrack()
	cChecked := opt.Obs.Counter("verify.checked")
	cSkipped := opt.Obs.Counter("verify.skipped")
	cTaut := opt.Obs.Counter("verify.tautologies")
	cMarked := opt.Obs.Counter("verify.marked")          // marks on proof clauses
	cMarkedOrig := opt.Obs.Counter("verify.marked_orig") // marks on original clauses (the core)
	cCkpt := opt.Obs.Counter("verify.checkpoints")
	hProps := opt.Obs.Histogram("verify.props_per_check")
	defer func() {
		st := statsBase
		if eng != nil {
			st = addStats(st, eng.Stats())
		}
		publishStats(opt.Obs, st)
	}()

	nVars := f.NumVars
	if mv := t.MaxVar(); int(mv)+1 > nVars {
		nVars = int(mv) + 1
	}
	totalProps := func() int64 {
		if eng == nil {
			return statsBase.Propagations
		}
		return statsBase.Propagations + eng.Propagations()
	}
	// The stop hook is polled by the engine inside propagation and by the
	// check loop once per clause, so both a single pathological BCP call
	// and a long proof stop promptly. The propagation budget covers the
	// whole run, including work resumed from a checkpoint.
	stop := verifyStopFunc(opt.Ctx, opt.Budget.MaxPropagations, totalProps)

	// record captures one hinted step from the engine's still-hot conflict
	// state (must run before the next Refute/Deactivate). Engine clause IDs
	// shift by +1 into LRAT ID space, where the formula owns 1..nf.
	var hintIDs []bcp.ID
	var hints64 []int64
	record := func(id int64, c cnf.Clause, conflict bcp.ID, refuted cnf.Clause) {
		hintIDs = eng.ConflictHints(conflict, refuted, hintIDs[:0])
		hints64 = hints64[:0]
		for _, h := range hintIDs {
			hints64 = append(hints64, int64(h)+1)
		}
		opt.Hints.Record(id, c, hints64)
	}

	// buildEngine brings the engine to its canonical state: the formula and
	// the trace prefix [0, upto) Added in input order. The first call builds
	// a new engine; every later one — at each epoch boundary when
	// checkpointing is enabled — folds the engine's statistics into
	// statsBase and Resets it in place before the same Adds, so that an
	// uninterrupted run and a killed-and-resumed run pass through identical
	// engine states (see checkpoint.go). A deletion schedule is replayed up
	// to clause upto-1 by suspending the deleted clauses, so that walking a
	// deletion backwards can reactivate them; the deletions after it are the
	// ones the loop undoes first.
	formulaLits := numLits(f.Clauses)
	marked := make([]bool, nf+m)
	buildEngine := func(upto int) {
		var watched *bcp.Engine
		switch {
		case eng != nil:
			statsBase = addStats(statsBase, eng.Stats())
			eng.Reset()
			watched, _ = eng.(*bcp.Engine)
		case opt.Engine == EngineCounting:
			eng = bcp.NewCounting(nVars)
		default:
			watched = bcp.NewEngine(nVars)
			eng = watched
		}
		if watched != nil {
			// Size the clause store once: growing it by appends would
			// allocate several times its final size.
			watched.Reserve(nf+upto, formulaLits+numLits(t.Clauses[:upto]))
		}
		eng.SetStop(stop)
		eng.SetTrace(track)
		for _, c := range f.Clauses {
			eng.Add(c)
		}
		for i := 0; i < upto; i++ {
			if dels != nil {
				for _, s := range dels[i] {
					watched.Suspend(bcp.ID(s))
				}
			}
			eng.Add(t.Clauses[i])
		}
		coreEng = nil
		if watched != nil && opt.Hints == nil {
			// Re-apply the marks in ID order, so the core lists, like the
			// other lists, depend only on the boundary.
			coreEng = watched
			for id, mk := range marked[:nf+upto] {
				if mk {
					coreEng.MarkCore(bcp.ID(id))
				}
			}
		}
	}

	res = &Result{
		OK:           true,
		FailedIndex:  -1,
		StoppedAt:    -1,
		Termination:  term,
		ProofClauses: m,
	}

	start := m - 1
	resumedAt := -2 // sentinel: no boundary suppressed
	if rcp := ck.Resume; rcp != nil {
		// Restart from the durable state: loop boundary, marked bitmap,
		// counters. The obs counters are re-seeded so a resumed run's
		// final snapshot equals an uninterrupted run's.
		start = rcp.NextIndex
		resumedAt = start
		copy(marked, rcp.Marked)
		res.Tested, res.Skipped, res.Tautologies = rcp.Tested, rcp.Skipped, rcp.Tautologies
		statsBase = rcp.Stats
		cChecked.Add(int64(rcp.Tested))
		cSkipped.Add(int64(rcp.Skipped))
		cTaut.Add(int64(rcp.Tautologies))
		orig, prf := markedCounts(marked, nf)
		cMarkedOrig.Add(orig)
		cMarked.Add(prf)
		opt.Progress.Step(int64(m - 1 - start))
	} else {
		switch term {
		case proof.TermFinalPair:
			marked[nf+m-1] = true
			marked[nf+m-2] = true
			cMarked.Add(2)
		case proof.TermEmptyClause:
			marked[nf+m-1] = true
			cMarked.Inc()
		}
	}

	build := span.Child("build-db")
	buildEngine(start + 1)
	build.End()

	check := span.Child("check-loop")
	defer check.End()
	var ckBuf []byte // every epoch record, in turn; see CheckpointConfig.Sink
	for i := start; i >= 0; i-- {
		if ck.enabled() && i != m-1 && i != resumedAt && (m-1-i)%ck.Every == 0 {
			// Epoch boundary: reset the engine to its canonical state
			// (formula + active trace prefix in input order) and persist
			// the resumable record. Clause i has not been processed yet,
			// so the active prefix is [0, i+1).
			buildEngine(i + 1)
			cCkpt.Inc()
			track.Instant("checkpoint.epoch", int64(i))
			if ck.Sink != nil {
				cp := &Checkpoint{
					NextIndex:   i,
					Marked:      marked,
					Tested:      res.Tested,
					Skipped:     res.Skipped,
					Tautologies: res.Tautologies,
					Stats:       statsBase,
					// Clause i is not processed yet, so the recorder holds
					// exactly the steps for indices above i — the resumed
					// loop re-records i..0 with no duplicates.
					Hints: opt.Hints,
				}
				// A hinted run's records grow with its hint log; sizing
				// the buffer at twice a record keeps it from being
				// replaced at every epoch.
				if n := cp.encodedLen(); cap(ckBuf) < n {
					ckBuf = make([]byte, 0, 2*n)
				}
				ckBuf = cp.appendTo(ckBuf[:0])
				if err := ck.Sink(ckBuf); err != nil {
					res.Incomplete = true
					res.StoppedAt = i
					res.Propagations = totalProps()
					countStopErr(opt.Obs, err)
					return res, fmt.Errorf("core: checkpoint append: %w", err)
				}
			}
		}
		id := bcp.ID(nf + i)
		c := t.Clauses[i]
		if err := stop(); err != nil {
			res.Incomplete = true
			res.StoppedAt = i
			res.Propagations = totalProps()
			countStopErr(opt.Obs, err)
			return res, err
		}
		if dels != nil && i+1 < m {
			// Undo, newest first, the deletions made after clause i was
			// added: clause i's check ran with them in the database.
			d := dels[i+1]
			for k := len(d) - 1; k >= 0; k-- {
				if err := eng.Reactivate(bcp.ID(d[k])); err != nil {
					return nil, fmt.Errorf("core: undoing a deletion before trace clause %d: %w", i+1, err)
				}
			}
		}
		// Pop the clause off the proof stack: its own check and all later
		// checks must not use it.
		eng.Deactivate(id)
		opt.Progress.Step(1)
		if opt.Mode == ModeCheckMarked && !marked[id] {
			res.Skipped++
			cSkipped.Inc()
			continue
		}
		propsBefore := totalProps()
		conflict, selfContra := eng.Refute(c)
		if err := eng.StopErr(); err != nil {
			res.Incomplete = true
			res.StoppedAt = i
			res.Propagations = totalProps()
			countStopErr(opt.Obs, err)
			return res, err
		}
		if selfContra {
			// A tautologous "conflict clause" is implied by anything; it
			// cannot participate in any later conflict either, so it needs
			// no marking.
			res.Tautologies++
			cTaut.Inc()
			continue
		}
		res.Tested++
		cChecked.Inc()
		hProps.Observe(totalProps() - propsBefore)
		if conflict == bcp.NoConflict {
			res.OK = false
			res.FailedIndex = i
			res.FailedClause = c.Clone()
			res.Propagations = totalProps()
			track.Instant("verify.reject", int64(i))
			return res, nil
		}
		eng.WalkConflict(conflict, func(used bcp.ID) {
			if !marked[used] {
				marked[used] = true
				if coreEng != nil {
					coreEng.MarkCore(used)
				}
				if int(used) < nf {
					cMarkedOrig.Inc()
				} else {
					cMarked.Inc()
				}
			}
		})
		if opt.Hints != nil {
			record(int64(id)+1, c, conflict, c)
		}
	}
	check.End()

	if opt.Hints != nil && term == proof.TermFinalPair {
		// The trace ends in complementary units rather than an explicit empty
		// clause; LRAT wants the refutation spelled out. Replaying the empty
		// clause assigns nothing, the first hint is unit and assigns its
		// literal, the second is then falsified — a conflict, as required.
		opt.Hints.Record(int64(nf+m)+1, nil, []int64{int64(nf+m) - 1, int64(nf + m)})
	}

	extract := span.Child("core-extract")
	defer extract.End()
	for i := 0; i < nf; i++ {
		if marked[i] {
			res.Core = append(res.Core, i)
		}
	}
	res.UsedProof = make([]bool, m)
	for i := 0; i < m; i++ {
		if marked[nf+i] {
			res.UsedProof[i] = true
			res.MarkedProof++
		}
	}
	res.Propagations = totalProps()
	return res, nil
}

// checkDeletions validates a trace's deletion schedule, if any: one entry
// per clause, every slot naming a formula clause or an earlier trace clause.
// Slots are not checked for liveness: deleting a clause twice, or using one
// the producer deleted, can only keep more clauses in the database, which a
// RUP check may use soundly. A schedule needs an engine that can undo a
// deletion, so the counting engine refuses it.
func checkDeletions(f *cnf.Formula, t *proof.Trace, engine EngineKind) error {
	if t.Deletions == nil {
		return nil
	}
	if engine == EngineCounting {
		return fmt.Errorf("%w: the %v engine cannot undo clause deletions", ErrBadTrace, engine)
	}
	if len(t.Deletions) != len(t.Clauses) {
		return fmt.Errorf("%w: %d clauses but %d deletion schedule entries",
			ErrBadTrace, len(t.Clauses), len(t.Deletions))
	}
	nf := len(f.Clauses)
	for i, d := range t.Deletions {
		for _, s := range d {
			if s < 0 || s >= nf+i {
				return fmt.Errorf("%w: deletion before trace clause %d names slot %d, not yet added",
					ErrBadTrace, i, s)
			}
		}
	}
	return nil
}

// numLits returns the total number of literals in cs.
func numLits(cs []cnf.Clause) int {
	n := 0
	for _, c := range cs {
		n += len(c)
	}
	return n
}

// publishStats adds a propagator's counters to the registry's bcp.*
// namespace (Add is cumulative, so parallel workers simply sum).
func publishStats(r *obs.Registry, st bcp.Stats) {
	if r == nil {
		return
	}
	r.Counter("bcp.propagations").Add(st.Propagations)
	r.Counter("bcp.refutations").Add(st.Refutations)
	r.Counter("bcp.conflicts").Add(st.Conflicts)
	r.Counter("bcp.watcher_visits").Add(st.WatcherVisits)
	r.Counter("bcp.occ_touches").Add(st.OccTouches)
}

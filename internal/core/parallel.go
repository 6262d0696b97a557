package core

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/bcp"
	"repro/internal/cnf"
	"repro/internal/proof"
)

// resolveWorkers maps a requested worker count to the effective one for a
// fixed-chunk run over a proof of m clauses: non-positive selects
// GOMAXPROCS, and the count is clamped to m because a chunk needs at least
// one clause.
func resolveWorkers(m, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m {
		workers = m
	}
	return workers
}

// parallelChunkHook, when non-nil, runs at the start of every chunk attempt
// (worker id, chunk bounds, 0-based attempt). Test-only: panic-recovery
// tests use it to blow up inside a worker and prove the process survives.
var parallelChunkHook func(worker, lo, hi, attempt int)

// FallbackEngine is the engine a panicked run is retried on: the counting
// engine backs up the watched one and vice versa, so a defect confined to
// one propagator's data structures cannot take down the whole verification.
// The parallel verifier retries a chunk on it, and the service a job.
func FallbackEngine(k EngineKind) EngineKind {
	if k == EngineCounting {
		return EngineWatched
	}
	return EngineCounting
}

// chunkTally is one chunk attempt's contribution to the aggregate Result.
type chunkTally struct {
	tested, taut int
	failed       int32 // first failed index within the whole trace, -1
	failedClause cnf.Clause
	props        int64
}

// VerifyParallelOpts is Proof_verification1 fanned out over worker
// goroutines: the check of clause i against F ∪ F*[0..i-1] is independent
// of every other check, so the proof is sliced into contiguous chunks and
// each worker verifies its chunk with a private BCP engine. opt.Engine
// selects the BCP engine, opt.Obs and opt.Progress instrument the run
// (per-worker child spans record each chunk's bounds and wall time;
// counters aggregate across workers) and opt.Ctx/opt.Budget bound it.
// workers <= 0 selects GOMAXPROCS.
//
// The run cannot honor opt.Mode — marking (and hence core extraction and
// Verification2's skipping) is inherently sequential, so chunked workers
// check every clause regardless and extract no core — and on any worker
// count it rejects opt.Hints, a deletion schedule (with ErrBadTrace) and
// opt.Checkpoint (with ErrBadCheckpoint): the resumable check-all run is
// the sequential Verify with ModeCheckAll.
//
// Failure isolation: a panic inside a worker is recovered and attributed
// (worker id + chunk bounds); the chunk is retried once, from its top, on
// the fallback engine before the run gives up with a *WorkerPanicError.
// Cancellation, deadline and budget exhaustion stop every worker promptly
// and return the aggregated partial Result alongside the distinct error,
// exactly like the sequential Verify.
func VerifyParallelOpts(f *cnf.Formula, t *proof.Trace, opt Options, workers int) (*Result, error) {
	term := t.Terminates()
	if term == proof.TermNone {
		return nil, errTermination()
	}
	// The refusals come before the one-worker fallback, so whether a call is
	// refused never depends on GOMAXPROCS or the proof length.
	if ck := opt.Checkpoint; ck.Every != 0 || ck.Sink != nil || ck.Resume != nil {
		return nil, fmt.Errorf("%w: checkpointing requires sequential verification", ErrBadCheckpoint)
	}
	if opt.Hints != nil {
		// Hint order follows one engine's propagation; chunked workers each
		// have their own, so there is no canonical recording to merge.
		return nil, errors.New("core: LRAT hint recording requires sequential verification")
	}
	if t.Deletions != nil {
		// A chunk's engine starts from its prefix; undoing deletions needs
		// the one backward walk of the sequential loop.
		return nil, fmt.Errorf("%w: a deletion schedule requires sequential verification", ErrBadTrace)
	}
	m := len(t.Clauses)
	workers = resolveWorkers(m, workers)
	if workers <= 1 {
		seq := opt
		seq.Mode = ModeCheckAll
		return Verify(f, t, seq)
	}
	if err := checkBudgetUpfront(f, t, opt.Budget, workers); err != nil {
		countStopErr(opt.Obs, err)
		return &Result{FailedIndex: -1, StoppedAt: -1, Termination: term,
			ProofClauses: m, Incomplete: true}, err
	}

	span := opt.Obs.StartSpan("verify-parallel")
	defer span.End()
	opt.Obs.Gauge("verify.workers").Set(int64(workers))
	cChecked := opt.Obs.Counter("verify.checked")
	cTaut := opt.Obs.Counter("verify.tautologies")
	cPanics := opt.Obs.Counter("verify.worker_panics")
	cRetries := opt.Obs.Counter("verify.chunk_retries")
	hChunkProps := opt.Obs.Histogram("verify.props_per_chunk")

	nVars := f.NumVars
	if mv := t.MaxVar(); int(mv)+1 > nVars {
		nVars = int(mv) + 1
	}
	nf := len(f.Clauses)
	formulaLits := numLits(f.Clauses)

	outs := make([]chunkTally, workers)
	for w := range outs {
		outs[w].failed = -1
	}

	var failedAt atomic.Int32
	failedAt.Store(int32(m)) // sentinel: no failure

	// First stop cause wins (cancellation, budget exhaustion, or an
	// unrecoverable worker panic); every worker's stop hook observes it
	// and bails out at its next poll.
	var stopPtr atomic.Pointer[error]
	setStopped := func(err error) {
		e := err
		stopPtr.CompareAndSwap(nil, &e)
	}
	// The propagation budget is global: each worker's hook folds its
	// engine's delta into sharedProps and compares the run-wide total.
	var sharedProps atomic.Int64
	mkStop := func(props func() int64) func() error {
		var lastSeen int64
		return func() error {
			if p := stopPtr.Load(); p != nil {
				return *p
			}
			if err := ctxErr(opt.Ctx); err != nil {
				return err
			}
			if b := opt.Budget.MaxPropagations; b > 0 {
				if cur := props(); cur != lastSeen {
					sharedProps.Add(cur - lastSeen)
					lastSeen = cur
				}
				if used := sharedProps.Load(); used > b {
					return &BudgetError{Resource: "propagations", Limit: b, Used: used}
				}
			}
			return nil
		}
	}

	chunk := (m + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			// Each worker gets its own flight-recorder lane, so its spans,
			// chunk claims and BCP counter deltas render as a separate
			// timeline row instead of interleaving with the main lane.
			wtrack := opt.Obs.NewTrack(fmt.Sprintf("worker-%d", w))
			wspan := span.ChildOn(wtrack, fmt.Sprintf("worker-%d [%d,%d)", w, lo, hi))
			defer wspan.End()

			// runAttempt checks trace clauses [hi-1..lo] on a fresh engine.
			// A recovered panic discards the tally — a retry redoes the
			// whole chunk, so merging would double count — while a stop
			// error keeps it, so the aggregated partial Result stays
			// accurate.
			// panicked distinguishes a panic in THIS worker's attempt from a
			// stop error merely relayed by the hook (which may itself be
			// another worker's WorkerPanicError).
			runAttempt := func(attempt int, kind EngineKind) (tally chunkTally, err error, panicked bool) {
				tally.failed = -1
				defer func() {
					if r := recover(); r != nil {
						tally = chunkTally{failed: -1}
						err = &WorkerPanicError{Worker: w, Lo: lo, Hi: hi,
							Attempts: attempt + 1, Value: r, Stack: debug.Stack()}
						panicked = true
					}
				}()
				if parallelChunkHook != nil {
					parallelChunkHook(w, lo, hi, attempt)
				}
				wtrack.Instant(fmt.Sprintf("chunk.claim [%d,%d)", lo, hi), int64(attempt))

				// The engine holds the formula and the trace prefix [0, hi);
				// clause i is checked after deactivating ids >= i, walking
				// backwards like the sequential code.
				build := wspan.Child("build-db")
				var eng bcp.Propagator
				if kind == EngineCounting {
					eng = bcp.NewCounting(nVars)
				} else {
					watched := bcp.NewEngine(nVars)
					// Size the clause store once, as the sequential
					// buildEngine does.
					watched.Reserve(nf+hi, formulaLits+numLits(t.Clauses[:hi]))
					eng = watched
				}
				defer func() { publishStats(opt.Obs, eng.Stats()) }()
				stop := mkStop(eng.Propagations)
				eng.SetStop(stop)
				eng.SetTrace(wtrack)
				for _, c := range f.Clauses {
					eng.Add(c)
				}
				for _, c := range t.Clauses[:hi] {
					eng.Add(c)
				}
				build.End()

				for i := hi - 1; i >= lo; i-- {
					if failedAt.Load() != int32(m) {
						break // some worker already found a bad clause
					}
					if serr := stop(); serr != nil {
						tally.props = eng.Propagations()
						return tally, serr, false
					}
					eng.Deactivate(bcp.ID(nf + i))
					opt.Progress.Step(1)
					conflict, selfContra := eng.Refute(t.Clauses[i])
					if serr := eng.StopErr(); serr != nil {
						tally.props = eng.Propagations()
						return tally, serr, false
					}
					if selfContra {
						tally.taut++
						cTaut.Inc()
						continue
					}
					tally.tested++
					cChecked.Inc()
					if conflict == bcp.NoConflict {
						tally.failed = int32(i)
						tally.failedClause = t.Clauses[i].Clone()
						// Publish the smallest failing index.
						for {
							cur := failedAt.Load()
							if int32(i) >= cur || failedAt.CompareAndSwap(cur, int32(i)) {
								break
							}
						}
						break
					}
				}
				tally.props = eng.Propagations()
				hChunkProps.Observe(tally.props)
				return tally, nil, false
			}

			tally, err, panicked := runAttempt(0, opt.Engine)
			if panicked {
				cPanics.Inc()
				if stopPtr.Load() == nil {
					cRetries.Inc()
					var again bool
					tally, err, again = runAttempt(1, FallbackEngine(opt.Engine))
					if again {
						cPanics.Inc()
					}
				}
			}
			outs[w] = tally
			if err != nil {
				setStopped(err)
			}
		}(w, lo, hi)
	}
	wg.Wait()

	res := &Result{
		OK:           true,
		FailedIndex:  -1,
		StoppedAt:    -1,
		Termination:  term,
		ProofClauses: m,
	}
	for w := range outs {
		res.Tested += outs[w].tested
		res.Tautologies += outs[w].taut
		res.Propagations += outs[w].props
	}
	if p := stopPtr.Load(); p != nil {
		res.Incomplete = true
		countStopErr(opt.Obs, *p)
		return res, *p
	}
	if idx := failedAt.Load(); int(idx) < m {
		res.OK = false
		res.FailedIndex = int(idx)
		res.FailedClause = t.Clauses[idx].Clone()
		for w := range outs {
			if outs[w].failed == idx {
				res.FailedClause = outs[w].failedClause
			}
		}
	}
	return res, nil
}

func errTermination() error {
	return &terminationError{}
}

type terminationError struct{}

func (*terminationError) Error() string {
	return "core: malformed proof trace: trace must end in a final conflicting pair or the empty clause"
}

func (*terminationError) Unwrap() error { return ErrBadTrace }

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

// VerifyParallel is Proof_verification1 fanned out over worker goroutines:
// the check of clause i against F ∪ F*[0..i-1] is independent of every
// other check, so the proof is sliced into contiguous chunks and each
// worker verifies its chunk with a private BCP engine. Marking (and hence
// core extraction and Verification2's skipping) is inherently sequential,
// so this entry point checks every clause and reports no core — it is the
// "maximum-assurance, wall-clock-bound" mode.
//
// workers <= 0 selects GOMAXPROCS.
func VerifyParallel(f *cnf.Formula, t *proof.Trace, engine EngineKind, workers int) (*Result, error) {
	return VerifyParallelOpts(f, t, Options{Mode: ModeCheckAll, Engine: engine}, workers)
}

// ResolveWorkers maps a requested worker count to the effective one for a
// fixed-chunk run over a proof of m clauses: non-positive selects
// GOMAXPROCS, and the count is clamped to m because a chunk needs at least
// one clause. CLI callers use it to record the effective parallelism in a
// checkpoint journal's metadata before VerifyParallelOpts applies the same
// resolution — the chunk geometry (and hence the durable per-worker state)
// depends on it, so a chunked journal is only resumable at the same count.
func ResolveWorkers(m, workers int) int {
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

// fallbackEngine is the engine a panicked chunk is retried on: the counting
// engine backs up the watched one and vice versa, so a defect confined to
// one propagator's data structures cannot take down the whole verification.
func fallbackEngine(k EngineKind) EngineKind {
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

// VerifyParallelOpts is VerifyParallel with full Options: opt.Engine
// selects the BCP engine, opt.Obs and opt.Progress instrument the run
// (per-worker child spans record each chunk's bounds and wall time;
// counters aggregate across workers) and opt.Ctx/opt.Budget bound it.
//
// The trace is sliced into contiguous per-worker ranges. The run cannot
// honor opt.Mode — marking is inherently sequential, so chunked workers
// check every clause regardless and extract no core — and it rejects
// opt.Hints.
//
// Failure isolation: a panic inside a worker is recovered and attributed
// (worker id + chunk bounds); the chunk is retried once on the fallback
// engine before the run gives up with a *WorkerPanicError. Cancellation,
// deadline and budget exhaustion stop every worker promptly and return the
// aggregated partial Result alongside the distinct error, exactly like the
// sequential Verify.
func VerifyParallelOpts(f *cnf.Formula, t *proof.Trace, opt Options, workers int) (*Result, error) {
	term := t.Terminates()
	if term == proof.TermNone {
		return nil, errTermination()
	}
	m := len(t.Clauses)
	workers = ResolveWorkers(m, workers)
	if workers <= 1 {
		seq := opt
		seq.Mode = ModeCheckAll
		return Verify(f, t, seq)
	}
	if opt.Hints != nil {
		// Hint order follows one engine's propagation; chunked workers each
		// have their own, so there is no canonical recording to merge.
		return nil, errors.New("core: LRAT hint recording requires sequential verification")
	}
	if err := checkBudgetUpfront(f, t, opt.Budget, workers); err != nil {
		countStopErr(opt.Obs, err)
		return &Result{FailedIndex: -1, StoppedAt: -1, Termination: term,
			ProofClauses: m, Incomplete: true}, err
	}
	ck := opt.Checkpoint
	if ck.Resume != nil {
		if !ck.enabled() {
			return nil, fmt.Errorf("%w: resume requires a checkpoint interval", ErrBadCheckpoint)
		}
		if err := ck.Resume.ValidateFor(len(f.Clauses), m, workers); err != nil {
			return nil, err
		}
	}

	span := opt.Obs.StartSpan("verify-parallel")
	defer span.End()
	opt.Obs.Gauge("verify.workers").Set(int64(workers))
	cChecked := opt.Obs.Counter("verify.checked")
	cTaut := opt.Obs.Counter("verify.tautologies")
	cPanics := opt.Obs.Counter("verify.worker_panics")
	cRetries := opt.Obs.Counter("verify.chunk_retries")
	cCkpt := opt.Obs.Counter("verify.checkpoints")
	hChunkProps := opt.Obs.Histogram("verify.props_per_chunk")

	nVars := f.NumVars
	if mv := t.MaxVar(); int(mv)+1 > nVars {
		nVars = int(mv) + 1
	}
	nf := len(f.Clauses)

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

	// slots is the durable per-worker progress: each worker owns its entry
	// and commits an updated copy at every checkpoint boundary; the sink
	// record is a snapshot of the whole array, so any single record can
	// restart every worker. ckMu serializes slot updates with the snapshot
	// and keeps journal appends ordered.
	var ckMu sync.Mutex
	chunk := (m + workers - 1) / workers
	slots := make([]WorkerState, workers)
	for w := range slots {
		lo, hi := w*chunk, min((w+1)*chunk, m)
		if lo >= hi {
			slots[w].Next = m // empty chunk sentinel, see ValidateFor
		} else {
			slots[w].Next = hi - 1
		}
	}
	if rcp := ck.Resume; rcp != nil {
		copy(slots, rcp.Workers)
		// Re-seed the aggregate counters so a resumed run's final snapshot
		// equals an uninterrupted run's.
		var tested, taut int64
		var st bcp.Stats
		for _, ws := range rcp.Workers {
			tested += int64(ws.Tested)
			taut += int64(ws.Tautologies)
			st = addStats(st, ws.Stats)
		}
		cChecked.Add(tested)
		cTaut.Add(taut)
		publishStats(opt.Obs, st)
	}
	commitSlot := func(w int, st WorkerState) error {
		ckMu.Lock()
		defer ckMu.Unlock()
		slots[w] = st
		cCkpt.Inc()
		if ck.Sink == nil {
			return nil
		}
		cp := &Checkpoint{Par: true, Workers: append([]WorkerState(nil), slots...)}
		return ck.Sink(cp.Encode())
	}
	readSlot := func(w int) WorkerState {
		ckMu.Lock()
		defer ckMu.Unlock()
		return slots[w]
	}

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

			// runAttempt checks trace clauses [seed.Next..lo] on a fresh
			// engine, seeded from the worker's committed slot (the chunk top
			// on a fresh run, the last checkpoint after a resume or a panic
			// retry). A recovered panic reverts the tally to the seed — a
			// retry redoes everything since the last commit, so merging
			// would double count — while a stop error keeps it, so the
			// aggregated partial Result stays accurate.
			// panicked distinguishes a panic in THIS worker's attempt from a
			// stop error merely relayed by the hook (which may itself be
			// another worker's WorkerPanicError).
			runAttempt := func(attempt int, kind EngineKind) (tally chunkTally, err error, panicked bool) {
				seed := readSlot(w)
				seedTally := chunkTally{tested: seed.Tested, taut: seed.Tautologies,
					failed: -1, props: seed.Stats.Propagations}
				tally = seedTally
				defer func() {
					if r := recover(); r != nil {
						tally = seedTally
						err = &WorkerPanicError{Worker: w, Lo: lo, Hi: hi,
							Attempts: attempt + 1, Value: r, Stack: debug.Stack()}
						panicked = true
					}
				}()
				if parallelChunkHook != nil {
					parallelChunkHook(w, lo, hi, attempt)
				}
				wtrack.Instant(fmt.Sprintf("chunk.claim [%d,%d)", lo, hi), int64(attempt))
				startAt := seed.Next
				if startAt < lo {
					// The resumed state says this chunk is already done.
					hChunkProps.Observe(tally.props)
					return tally, nil, false
				}
				statsBase := seed.Stats
				var eng bcp.Propagator
				defer func() {
					if eng != nil {
						// Publish only this attempt's new work; the seed
						// portion was published once during resume setup.
						publishStats(opt.Obs, subStats(addStats(statsBase, eng.Stats()), seed.Stats))
					}
				}()
				totalProps := func() int64 {
					if eng == nil {
						return statsBase.Propagations
					}
					return statsBase.Propagations + eng.Propagations()
				}
				stop := mkStop(totalProps)
				// buildEngine (re)creates the engine with the formula and
				// trace prefix [0, upto) active, folding the previous
				// engine's statistics into statsBase. Under checkpointing it
				// runs at every epoch boundary so interrupted and
				// uninterrupted runs share engine states (see checkpoint.go);
				// clause i is checked after deactivating ids >= i, i.e. we
				// add [0, upto) and walk backwards like the sequential code.
				buildEngine := func(upto int) {
					if eng != nil {
						statsBase = addStats(statsBase, eng.Stats())
					}
					switch kind {
					case EngineCounting:
						eng = bcp.NewCounting(nVars)
					case EngineWatchedScratch:
						eng = bcp.NewEngineNonIncremental(nVars)
					default:
						eng = bcp.NewEngine(nVars)
					}
					eng.SetStop(stop)
					eng.SetTrace(wtrack)
					for _, c := range f.Clauses {
						eng.Add(c)
					}
					for i := 0; i < upto; i++ {
						eng.Add(t.Clauses[i])
					}
				}

				build := wspan.Child("build-db")
				buildEngine(startAt + 1)
				build.End()

				completed := true
				for i := startAt; i >= lo; i-- {
					if ck.enabled() && i != startAt && (hi-1-i)%ck.Every == 0 {
						// Per-worker epoch boundary, anchored at the chunk
						// top: canonical rebuild, then a durable record of
						// every worker's slot.
						buildEngine(i + 1)
						wtrack.Instant("checkpoint.epoch", int64(i))
						st := WorkerState{Next: i, Tested: tally.tested,
							Tautologies: tally.taut, Stats: statsBase}
						if cerr := commitSlot(w, st); cerr != nil {
							tally.props = totalProps()
							return tally, fmt.Errorf("core: checkpoint append: %w", cerr), false
						}
					}
					if failedAt.Load() != int32(m) {
						completed = false
						break // some worker already found a bad clause
					}
					if serr := stop(); serr != nil {
						tally.props = totalProps()
						return tally, serr, false
					}
					eng.Deactivate(bcp.ID(nf + i))
					opt.Progress.Step(1)
					conflict, selfContra := eng.Refute(t.Clauses[i])
					if serr := eng.StopErr(); serr != nil {
						tally.props = totalProps()
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
						completed = false
						break
					}
				}
				tally.props = totalProps()
				if completed && ck.enabled() {
					// Chunk-done record (Next = lo-1): a later resume skips
					// this chunk entirely and reuses its final tallies.
					st := WorkerState{Next: lo - 1, Tested: tally.tested,
						Tautologies: tally.taut, Stats: addStats(statsBase, eng.Stats())}
					if cerr := commitSlot(w, st); cerr != nil {
						return tally, fmt.Errorf("core: checkpoint append: %w", cerr), false
					}
				}
				hChunkProps.Observe(tally.props)
				return tally, nil, false
			}

			tally, err, panicked := runAttempt(0, opt.Engine)
			if panicked {
				cPanics.Inc()
				if stopPtr.Load() == nil {
					cRetries.Inc()
					var again bool
					tally, err, again = runAttempt(1, fallbackEngine(opt.Engine))
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

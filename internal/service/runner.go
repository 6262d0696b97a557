package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/lrat"
	"repro/internal/proof"
)

// worker pulls jobs until the queue closes. A worker goroutine never dies:
// every panic path inside runJob is recovered and turned into a typed
// result, so a poisonous job costs its own verdict, not a worker slot.
func (d *Daemon) worker(w int) {
	defer d.wg.Done()
	for {
		job, ok := d.q.Dequeue()
		if !ok {
			return
		}
		d.runJob(w, job)
	}
}

// runJob drives one job start to finish: load artifacts, verify (with
// checkpointing, panic isolation and one fallback-engine retry), record the
// terminal result. The only path that ends without a result is drain — the
// job then stays incomplete in the store for the next start to recover.
func (d *Daemon) runJob(w int, job *Job) {
	defer d.q.Done(job.Tenant)
	defer func() {
		// Last-resort isolation for panics outside the verification call
		// itself (store IO, result assembly): the worker survives and the
		// job gets an internal_error verdict instead of hanging forever.
		if r := recover(); r != nil {
			d.opt.Obs.Counter("service.worker_panics").Inc()
			d.opt.Logf("service: worker %d: panic on job %s: %v\n%s", w, job.ID, r, debug.Stack())
			d.finish(job, &JobResult{
				Status:   StatusInternal,
				Code:     StatusInternal.ExitCode(),
				Error:    fmt.Sprintf("worker panic: %v", r),
				Attempts: 1,
			})
		}
	}()
	d.setState(job.ID, StateRunning)

	f, tr, err := d.opt.Store.Artifacts(job.ID)
	if err != nil {
		d.finish(job, &JobResult{
			Status:   StatusInternal,
			Code:     StatusInternal.ExitCode(),
			Error:    fmt.Sprintf("load artifacts: %v", err),
			Attempts: 1,
		})
		return
	}

	budget := d.quotaFor(job.Tenant).Budget
	res, rec, engine, attempts, verr := d.verifyJob(w, job, f, tr, budget)

	if verr != nil && errors.Is(verr, core.ErrCancelled) && d.Draining() {
		// Drain, not an outcome: the final journal record is already
		// flushed; the job stays incomplete for the next start.
		d.setState(job.ID, StateQueued)
		d.opt.Obs.Counter("service.jobs_drained").Inc()
		return
	}

	jr := &JobResult{Status: statusOf(res, verr), Attempts: attempts}
	jr.Code = jr.Status.ExitCode()
	if verr != nil {
		jr.Error = verr.Error()
	} else {
		v := core.BuildVerdict(res, d.opt.Mode, engine, 0, job.NumClauses)
		jr.Verdict = &v
		if res.OK {
			jr.Core = res.Core
			// Persist the hinted proof before the result commit point, so a
			// done verified job always has its hints; a failure here costs
			// the cheap-recheck capability, never the verdict.
			d.storeLRAT(job, rec)
		}
	}
	d.finish(job, jr)
}

// storeLRAT renders and persists a verified job's recorded hints.
func (d *Daemon) storeLRAT(job *Job, rec *lrat.Recorder) {
	if rec == nil {
		return
	}
	lp, err := rec.Proof()
	if err == nil {
		var buf bytes.Buffer
		if err = lrat.Write(&buf, lp); err == nil {
			err = d.opt.Store.SetLRAT(job.ID, buf.Bytes())
		}
	}
	if err != nil {
		d.opt.Obs.Counter("service.lrat_store_errors").Inc()
		d.opt.Logf("service: job %s: hinted proof not stored (%v); recheck unavailable", job.ID, err)
	}
}

// finish records a terminal result. The in-memory cache is written first
// and unconditionally: a verdict that cost minutes of BCP survives a store
// whose disk filled up — the job then simply stays incomplete on disk and
// is recomputed (cheaply, from its journal) after a restart, rather than
// being lost.
func (d *Daemon) finish(job *Job, jr *JobResult) {
	d.mu.Lock()
	d.results[job.ID] = jr
	d.states[job.ID] = StateDone
	d.mu.Unlock()
	if err := d.opt.Store.SetResult(job.ID, jr); err != nil {
		d.opt.Obs.Counter("service.store_result_errors").Inc()
		d.opt.Logf("service: job %s: result not durable (%v); serving from memory", job.ID, err)
		return
	}
	d.opt.Obs.Counter("service.jobs_completed").Inc()
}

// verifyJob runs verification with at most one fallback-engine retry after
// a panic. Any second panic — or any non-panic error — is final. It returns
// the engine that produced the result so the verdict names the right one,
// and the attempt's hint recorder (fresh per attempt, so a retried run
// never carries the panicked attempt's partial records).
func (d *Daemon) verifyJob(w int, job *Job, f *cnf.Formula, tr *proof.Trace, budget core.Budget) (*core.Result, *lrat.Recorder, core.EngineKind, int, error) {
	engine := d.opt.Engine
	for attempt := 1; ; attempt++ {
		rec := new(lrat.Recorder)
		res, err := d.verifyOnce(w, job, f, tr, budget, engine, attempt, rec)
		var pe *core.WorkerPanicError
		if errors.As(err, &pe) && attempt == 1 {
			d.opt.Obs.Counter("service.worker_panics").Inc()
			fb := core.FallbackEngine(engine)
			d.opt.Logf("service: job %s: %v engine panicked (%v); retrying once on %v",
				job.ID, engine, pe.Value, fb)
			engine = fb
			continue
		}
		return res, rec, engine, attempt, err
	}
}

// verifyOnce performs a single verification attempt under the daemon's
// lifetime context plus the per-job deadline, checkpointing to the store's
// journal when it offers one. Journal failures only ever degrade durability
// — the attempt itself proceeds and its verdict stands.
func (d *Daemon) verifyOnce(w int, job *Job, f *cnf.Formula, tr *proof.Trace, budget core.Budget, engine core.EngineKind, attempt int, rec *lrat.Recorder) (res *core.Result, verr error) {
	ctx := d.ctx
	if d.opt.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.opt.JobTimeout)
		defer cancel()
	}
	opt := core.Options{
		Mode:   d.opt.Mode,
		Engine: engine,
		Ctx:    ctx,
		Budget: budget,
		Obs:    d.opt.Obs,
		Hints:  rec,
	}

	// Resume from a previous incarnation's journal when it fits; every
	// failure mode degrades to a full re-run, never a wrong verdict. (After
	// a fallback-engine retry the meta differs, so a stale primary-engine
	// journal is refused here by design.)
	var jw *core.Journal
	if jpath := d.opt.Store.JournalPath(job.ID); jpath != "" && d.opt.CheckpointEvery > 0 {
		var warn, jerr error
		jw, warn, jerr = core.StartJournal(jpath, f, tr.Len(), journal.FingerprintTrace(tr),
			&opt, d.opt.CheckpointEvery, 0, true)
		if warn != nil && !errors.Is(warn, journal.ErrNoJournal) {
			d.opt.Logf("service: job %s: not resuming (%v); running from scratch", job.ID, warn)
		}
		if jerr != nil {
			d.opt.Obs.Counter("service.journal_degraded").Inc()
			d.opt.Logf("service: job %s: checkpointing disabled (%v)", job.ID, jerr)
		} else {
			if cp := opt.Checkpoint.Resume; cp != nil {
				d.opt.Obs.Counter("service.jobs_resumed").Inc()
				d.opt.Logf("service: job %s: resuming from checkpoint at clause %d", job.ID, cp.NextIndex)
			}
			sink := opt.Checkpoint.Sink
			if d.opt.SinkWrap != nil {
				sink = d.opt.SinkWrap(sink)
			}
			opt.Checkpoint.Sink = d.degradingSink(job.ID, sink)
		}
	}

	func() {
		defer func() {
			if r := recover(); r != nil {
				res = nil
				verr = &core.WorkerPanicError{
					Worker:   w,
					Lo:       0,
					Hi:       tr.Len(),
					Attempts: attempt,
					Value:    r,
					Stack:    debug.Stack(),
				}
			}
		}()
		res, verr = core.Verify(f, tr, opt)
	}()

	if jw != nil {
		if ferr := jw.Finish(res, verr); ferr != nil {
			d.opt.Logf("service: job %s: %v", job.ID, ferr)
		}
	}
	return res, verr
}

// degradingSink wraps a journal sink so an IO failure (a dying disk under
// the store) costs durability, not the verdict: core.Verify aborts the run
// when its checkpoint sink errors, so the first failure here switches the
// sink off for the rest of the run instead of propagating. The checkpoint
// grid itself (engine rebuilds at epoch boundaries) is unaffected, so the
// produced verdict stays byte-identical either way.
func (d *Daemon) degradingSink(id string, sink func([]byte) error) func([]byte) error {
	failed := false
	return func(p []byte) error {
		if failed {
			return nil
		}
		if err := sink(p); err != nil {
			failed = true
			d.opt.Obs.Counter("service.journal_degraded").Inc()
			d.opt.Logf("service: job %s: checkpoint append failed (%v); continuing without durability", id, err)
		}
		return nil
	}
}

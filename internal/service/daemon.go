// Package service implements dpvd, the verification-as-a-service daemon: a
// long-running HTTP front end over the paper's proof verifier with the
// fault-tolerance properties a shared deployment needs — bounded admission
// queues with per-tenant quotas and Retry-After backpressure, per-job
// deadlines and resource budgets, worker panic isolation with one
// fallback-engine retry, graceful drain on SIGTERM, and (with the
// disk-backed store) kill-9 crash recovery that resumes interrupted jobs
// from their checkpoint journals and reproduces verdicts byte-identical to
// an uninterrupted run.
//
// The package deliberately reuses the CLI's building blocks rather than
// reimplementing them: admission parses through the limited parsers
// (internal/cnf, internal/proof), outcomes are classified by the shared
// exit-code contract (internal/exitcode), durability rides on
// internal/journal and internal/atomicio, and the verdict JSON is the same
// shape dpv -json prints. A client migrating from "shell out to dpv" to
// "POST to dpvd" keeps its entire outcome taxonomy.
package service

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proof"
	"repro/internal/retry"
)

// Options configures a Daemon. The zero value of most fields picks a
// production-sane default; Store is the only required field.
type Options struct {
	// Store persists jobs and results (required).
	Store Store

	// Workers is the number of concurrent verification workers (default 2).
	Workers int
	// QueueCap bounds the admission queue across all tenants (default 64).
	QueueCap int
	// DefaultQuota applies to tenants without an entry in Quotas. Zero
	// fields default to MaxQueued=QueueCap, MaxRunning=Workers, Budget from
	// Options.Budget — i.e. single-tenant deployments need not configure
	// quotas at all.
	DefaultQuota TenantQuota
	// Quotas overrides DefaultQuota per tenant name.
	Quotas map[string]TenantQuota

	// JobTimeout bounds each verification run (0 = unlimited).
	JobTimeout time.Duration
	// Budget is the default per-job resource budget (zero = unlimited).
	Budget core.Budget

	// Mode and Engine select the verification procedure, as in dpv.
	Mode   core.Mode
	Engine core.EngineKind
	// CheckpointEvery is the journal interval in proof clauses for stores
	// with a JournalPath (default 1000; set negative to disable).
	CheckpointEvery int

	// FormulaLimits/ProofLimits bound what admission accepts; zero fields
	// take cnf.DefaultParseLimits.
	FormulaLimits cnf.ParseLimits
	ProofLimits   cnf.ParseLimits
	// MaxUploadBytes bounds a whole upload body (default 256 MiB).
	MaxUploadBytes int64

	// RetryAfter is the base hint returned with 429/503 responses (default
	// 2s). The served value is jittered upward by RetryJitter so a fleet
	// of backpressured clients does not retry in lockstep.
	RetryAfter time.Duration
	// RetryJitter is the fraction of RetryAfter the hint is spread over:
	// each response advertises a value uniform in
	// [RetryAfter, RetryAfter*(1+RetryJitter)], rounded up to whole
	// seconds. Default 0.5; negative disables jitter (deterministic hints,
	// used by tests asserting exact headers).
	RetryJitter float64

	// Obs receives service metrics; nil disables instrumentation.
	Obs *obs.Registry
	// SinkWrap, when non-nil, wraps every checkpoint-journal sink — the
	// hook the kill-and-recover harness uses (cmd/internal/cli.CrashSink).
	SinkWrap func(func([]byte) error) func([]byte) error
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() (Options, error) {
	if o.Store == nil {
		return o, fmt.Errorf("service: Options.Store is required")
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 1000
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 256 << 20
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 2 * time.Second
	}
	if o.RetryJitter == 0 {
		o.RetryJitter = 0.5
	} else if o.RetryJitter < 0 {
		o.RetryJitter = 0
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	def := o.DefaultQuota
	if def.MaxQueued <= 0 {
		def.MaxQueued = o.QueueCap
	}
	if def.MaxRunning <= 0 {
		def.MaxRunning = o.Workers
	}
	o.DefaultQuota = def.withDefaults(TenantQuota{Budget: o.Budget})
	return o, nil
}

// Daemon is the verification service. Construct with New, then Recover
// (optional but recommended), then Start; stop with Drain.
type Daemon struct {
	opt Options
	q   *queue

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.RWMutex
	states  map[string]State
	results map[string]*JobResult // verdict cache; survives SetResult failure
	seq     uint64
	started bool

	// rnd drives Retry-After jitter; swapped for a deterministic source in
	// tests that assert the hint bounds.
	rnd func() float64

	draining  chan struct{} // closed when Drain begins
	drainOnce sync.Once
}

// New builds a Daemon from opt without starting any workers.
func New(opt Options) (*Daemon, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		opt:      opt,
		states:   make(map[string]State),
		results:  make(map[string]*JobResult),
		draining: make(chan struct{}),
		rnd:      rand.Float64,
	}
	d.q = newQueue(opt.QueueCap, d.quotaFor)
	d.ctx, d.cancel = context.WithCancel(context.Background())
	if seq, err := opt.Store.MaxSeq(); err == nil {
		d.seq = seq
	}
	return d, nil
}

func (d *Daemon) quotaFor(tenant string) TenantQuota {
	if q, ok := d.opt.Quotas[tenant]; ok {
		return q.withDefaults(d.opt.DefaultQuota)
	}
	return d.opt.DefaultQuota
}

// Recover scans the store for jobs admitted but not finished — the survivors
// of a crash or an unfinished drain — and re-queues them in admission order.
// Each re-run resumes from its checkpoint journal when that validates, so
// recovered verdicts are byte-identical to uninterrupted ones (the
// checkpoint determinism contract in internal/core/checkpoint.go). Call
// before Start so recovered jobs precede new admissions.
func (d *Daemon) Recover() (int, error) {
	jobs, err := d.opt.Store.Incomplete()
	if err != nil {
		return 0, fmt.Errorf("service: recovery scan: %w", err)
	}
	d.mu.Lock()
	for _, j := range jobs {
		d.states[j.ID] = StateQueued
	}
	d.mu.Unlock()
	d.q.Requeue(jobs)
	if len(jobs) > 0 {
		d.opt.Logf("service: recovered %d incomplete job(s)", len(jobs))
		d.opt.Obs.Counter("service.jobs_recovered").Add(int64(len(jobs)))
	}
	return len(jobs), nil
}

// Start launches the worker pool.
func (d *Daemon) Start() {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.mu.Unlock()
	for w := 0; w < d.opt.Workers; w++ {
		d.wg.Add(1)
		go d.worker(w)
	}
}

// Drain stops the daemon gracefully: admission closes immediately (new
// submissions get 503), queued jobs stay in the store for the next start,
// and in-flight jobs are cancelled so they flush a final checkpoint record
// and stop. Drain returns when every worker has exited or ctx expires.
func (d *Daemon) Drain(ctx context.Context) error {
	d.drainOnce.Do(func() {
		close(d.draining)
		d.q.Close()
		d.cancel()
	})
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
}

// Draining reports whether Drain has begun.
func (d *Daemon) Draining() bool {
	select {
	case <-d.draining:
		return true
	default:
		return false
	}
}

// Submit admits a parsed job for tenant: it reserves a queue slot under the
// capacity and quota bounds, makes the job durable in the store, and only
// then enqueues it. The returned Job is already visible to Status.
func (d *Daemon) Submit(tenant string, f *cnf.Formula, tr *proof.Trace) (*Job, error) {
	return d.SubmitID(tenant, "", f, tr)
}

// SubmitID is Submit with a caller-chosen job ID — the cluster router mints
// IDs so it can consistent-hash them onto shards before any shard is
// contacted. Admission with an ID the store already holds is idempotent:
// the existing job is returned with ErrAlreadyAdmitted and nothing is
// enqueued, which is what makes the router's retry loop safe (a re-POST
// after a lost response cannot double-run a job). An empty id mints one.
func (d *Daemon) SubmitID(tenant, id string, f *cnf.Formula, tr *proof.Trace) (*Job, error) {
	if id != "" && !ValidJobID(id) {
		return nil, fmt.Errorf("%w: malformed job id", ErrBadJobID)
	}
	if err := d.q.Admit(tenant); err != nil {
		switch err {
		case ErrQueueFull:
			d.opt.Obs.Counter("service.rejected_queue_full").Inc()
		case ErrTenantBusy:
			d.opt.Obs.Counter("service.rejected_tenant_busy").Inc()
		case ErrDraining:
			d.opt.Obs.Counter("service.rejected_draining").Inc()
		}
		return nil, err
	}
	if id == "" {
		var err error
		if id, err = NewJobID(); err != nil {
			d.q.Release(tenant)
			return nil, err
		}
	} else if job, err := d.opt.Store.Job(id); err == nil {
		// Idempotent re-admission: the job exists (admitted by a previous
		// attempt, possibly already done); the reserved slot goes back.
		d.q.Release(tenant)
		d.opt.Obs.Counter("service.readmissions_deduped").Inc()
		return job, ErrAlreadyAdmitted
	}
	d.mu.Lock()
	d.seq++
	seq := d.seq
	d.mu.Unlock()
	job := &Job{
		ID:           id,
		Tenant:       tenant,
		Seq:          seq,
		NumVars:      f.NumVars,
		NumClauses:   f.NumClauses(),
		ProofClauses: tr.Len(),
	}
	if err := d.opt.Store.Create(job, f, tr); err != nil {
		// Admission never half-succeeds: the slot goes back, the client
		// gets a retryable error, and the store holds nothing.
		d.q.Release(tenant)
		d.opt.Obs.Counter("service.store_create_errors").Inc()
		return nil, fmt.Errorf("service: admit: %w", err)
	}
	d.mu.Lock()
	d.states[id] = StateQueued
	d.mu.Unlock()
	d.q.Enqueue(job)
	d.opt.Obs.Counter("service.jobs_admitted").Inc()
	return job, nil
}

// Status returns a job's current state and, when done, its result. The
// result is served from the in-memory cache first — a verdict outlives a
// store whose result write failed (disk full) — then from the store, which
// also covers jobs finished before a restart.
func (d *Daemon) Status(id string) (State, *JobResult, error) {
	d.mu.RLock()
	st, known := d.states[id]
	jr := d.results[id]
	d.mu.RUnlock()
	if jr != nil {
		return StateDone, jr, nil
	}
	jr, err := d.opt.Store.Result(id)
	if err == ErrUnknownJob && known {
		// In-memory state without a store record can only mean the store
		// lost it; report what we know rather than 404ing a job we admitted.
		return st, nil, nil
	}
	if err != nil {
		return "", nil, err
	}
	if jr != nil {
		return StateDone, jr, nil
	}
	if !known {
		// Known to the store, not to this process: admitted by a previous
		// incarnation and pending recovery.
		st = StateQueued
	}
	return st, nil, nil
}

// Live is the /healthz probe: the process is alive iff it can answer at
// all, so this only fails once drain has begun (tell orchestrators to stop
// waiting on a process that is already leaving).
func (d *Daemon) Live() error {
	if d.Draining() {
		return ErrDraining
	}
	return nil
}

// Ready is the /readyz probe: ready to take traffic means not draining, a
// writable store, and admission headroom.
func (d *Daemon) Ready() error {
	if d.Draining() {
		return ErrDraining
	}
	if err := d.opt.Store.Ping(); err != nil {
		return err
	}
	if d.q.Saturated() {
		return fmt.Errorf("%w (%d queued)", ErrQueueFull, d.q.Depth())
	}
	return nil
}

// retryAfterSeconds renders one jittered Retry-After hint: uniform in
// [RetryAfter, RetryAfter*(1+RetryJitter)] whole seconds. Each call draws a
// fresh value, so simultaneous rejections advertise different hints — the
// anti-stampede property the bounds are tested for.
func (d *Daemon) retryAfterSeconds() int {
	return retry.JitterSeconds(d.opt.RetryAfter, d.opt.RetryJitter, d.rnd)
}

func (d *Daemon) setState(id string, st State) {
	d.mu.Lock()
	d.states[id] = st
	d.mu.Unlock()
}

package service

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cnf"
	"repro/internal/proof"
)

// Store persists jobs, their input artifacts, and their results. The daemon
// is written against this interface so durability is pluggable: MemStore
// for tests and ephemeral deployments, DiskStore for crash-recoverable
// service. The contract that matters for fault tolerance:
//
//   - Create is the admission commit point. When it returns nil the job —
//     including its artifacts — is owned by the store; for a durable store
//     that means it survives a crash. When it returns an error nothing of
//     the job remains (the HTTP layer then releases the queue slot and the
//     client retries).
//   - SetResult is the completion commit point, atomic per job: after a
//     crash a job either has its complete result or none, never a torn one.
//   - Incomplete lists every created job without a result, in admission
//     order — exactly the set a restarted daemon must re-run.
type Store interface {
	// Create admits a job with its parsed artifacts.
	Create(job *Job, f *cnf.Formula, tr *proof.Trace) error
	// Job returns the admission record, or ErrUnknownJob.
	Job(id string) (*Job, error)
	// Artifacts returns the job's formula and trace for verification. A
	// job admitted by this process runs on the artifacts admission parsed;
	// only recovered jobs and jobs over the daemon's bound on held
	// artifacts load them here. Replica records have no trace and return
	// ErrUnknownJob here.
	Artifacts(id string) (*cnf.Formula, *proof.Trace, error)
	// Formula returns just the job's formula. Unlike Artifacts it works
	// for replica records too — the /core and /recheck endpoints need the
	// formula but never the DRUP trace.
	Formula(id string) (*cnf.Formula, error)
	// SetResult records the job's terminal result.
	SetResult(id string, jr *JobResult) error
	// Result returns the recorded result, (nil, nil) when none yet, or
	// ErrUnknownJob for an unknown id.
	Result(id string) (*JobResult, error)
	// SetLRAT persists the job's hinted (LRAT) proof — the by-product of a
	// verified run that makes re-verification propagation-free. Written
	// before SetResult, so a completed verified job always has its hints.
	SetLRAT(id string, lrat []byte) error
	// LRAT returns the stored hinted proof, (nil, nil) when none was
	// recorded, or ErrUnknownJob for an unknown id.
	LRAT(id string) ([]byte, error)
	// PutReplica is the replication hook: it records a verdict computed
	// elsewhere — the job record (Replica set), the formula, the verdict
	// and its hinted proof — atomically enough that after a crash the
	// replica either exists complete or not at all. The caller has already
	// validated the verdict against the hints (lrat.Validate); the store
	// only persists.
	PutReplica(job *Job, f *cnf.Formula, jr *JobResult, lrat []byte) error
	// Incomplete lists created-but-unfinished jobs in Seq order. Replica
	// records are never included: they are not runnable work (shard-aware
	// recovery — a restarted shard re-runs its own jobs, not copies of
	// other shards' verdicts).
	Incomplete() ([]*Job, error)
	// MaxSeq returns the largest admission sequence number ever created, so
	// a restarted daemon continues the sequence instead of reusing it.
	MaxSeq() (uint64, error)
	// JournalPath returns where the job's checkpoint journal lives, or ""
	// when the store offers no durable journal (checkpointing is skipped).
	JournalPath(id string) string
	// Ping probes writability — the readiness signal for /readyz.
	Ping() error
}

// MemStore is the in-memory Store: no durability, no journals. A daemon on
// MemStore still gets bounded queues, quotas and panic isolation — it just
// recovers nothing after a restart.
type MemStore struct {
	mu      sync.RWMutex
	jobs    map[string]*memJob
	results map[string]*JobResult
	lrats   map[string][]byte
}

type memJob struct {
	job *Job
	f   *cnf.Formula
	tr  *proof.Trace
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		jobs:    make(map[string]*memJob),
		results: make(map[string]*JobResult),
		lrats:   make(map[string][]byte),
	}
}

func (s *MemStore) Create(job *Job, f *cnf.Formula, tr *proof.Trace) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[job.ID] = &memJob{job: job, f: f, tr: tr}
	return nil
}

func (s *MemStore) Job(id string) (*Job, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mj, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return mj.job, nil
}

func (s *MemStore) Artifacts(id string) (*cnf.Formula, *proof.Trace, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mj, ok := s.jobs[id]
	if !ok || mj.tr == nil { // replica records carry no trace
		return nil, nil, ErrUnknownJob
	}
	return mj.f, mj.tr, nil
}

func (s *MemStore) Formula(id string) (*cnf.Formula, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mj, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return mj.f, nil
}

func (s *MemStore) PutReplica(job *Job, f *cnf.Formula, jr *JobResult, lrat []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.jobs[job.ID]; ok && !existing.job.Replica {
		return fmt.Errorf("service: job %s exists locally; refusing replica overwrite", job.ID)
	}
	s.jobs[job.ID] = &memJob{job: job, f: f}
	s.results[job.ID] = jr
	s.lrats[job.ID] = append([]byte(nil), lrat...)
	return nil
}

func (s *MemStore) SetResult(id string, jr *JobResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; !ok {
		return ErrUnknownJob
	}
	s.results[id] = jr
	return nil
}

func (s *MemStore) Result(id string) (*JobResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.jobs[id]; !ok {
		return nil, ErrUnknownJob
	}
	return s.results[id], nil
}

func (s *MemStore) SetLRAT(id string, lrat []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; !ok {
		return ErrUnknownJob
	}
	s.lrats[id] = append([]byte(nil), lrat...)
	return nil
}

func (s *MemStore) LRAT(id string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.jobs[id]; !ok {
		return nil, ErrUnknownJob
	}
	return s.lrats[id], nil
}

func (s *MemStore) Incomplete() ([]*Job, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*Job
	for id, mj := range s.jobs {
		if mj.job.Replica {
			continue
		}
		if _, done := s.results[id]; !done {
			out = append(out, mj.job)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

func (s *MemStore) MaxSeq() (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var max uint64
	for _, mj := range s.jobs {
		if mj.job.Seq > max {
			max = mj.job.Seq
		}
	}
	return max, nil
}

func (s *MemStore) JournalPath(string) string { return "" }

func (s *MemStore) Ping() error { return nil }

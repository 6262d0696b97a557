package service

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/proof"
)

// State is a job's position in its lifecycle. The state machine is strictly
// forward: queued → running → done, with one backward edge — a daemon
// restart moves every non-done job back to queued (the run it was in is
// gone; its durable checkpoints, if any, make the re-run cheap).
type State string

const (
	// StateQueued: admitted and durable (for a disk-backed store), waiting
	// for a worker slot.
	StateQueued State = "queued"
	// StateRunning: a worker is verifying the proof right now.
	StateRunning State = "running"
	// StateDone: a terminal JobResult exists. Done jobs never change.
	StateDone State = "done"
)

// Job is the admission record for one verification request. It carries only
// what admission established — identity, ownership, and the sizes the
// limited parsers measured — never the verdict (that is JobResult's).
type Job struct {
	// ID is the job's handle in the HTTP API and the store.
	ID string `json:"id"`
	// Tenant attributes the job for quota accounting.
	Tenant string `json:"tenant"`
	// Seq is the admission sequence number; recovery re-queues incomplete
	// jobs in Seq order so a restart preserves submission fairness.
	Seq uint64 `json:"seq"`
	// NumVars/NumClauses/ProofClauses are the admitted problem's sizes, as
	// measured by the limited parsers before the job was accepted.
	NumVars      int `json:"num_vars"`
	NumClauses   int `json:"num_clauses"`
	ProofClauses int `json:"proof_clauses"`
	// Replica marks a verdict copy accepted through the replication
	// endpoint rather than a job this node admitted and verified itself.
	// Replica records are never run: Recover/Incomplete skip them, and a
	// half-written one (no result yet) is debris, not recoverable work.
	Replica bool `json:"replica,omitempty"`

	// f and tr are the artifacts admission parsed, handed to the worker in
	// memory so the run does not parse the store's copy again; held is
	// what they are charged against Options.MaxUploadBytes while queued.
	// JSON leaves unexported fields out, so job.json does not change. They
	// are nil for recovered jobs and for jobs over the bound, which load
	// their artifacts from the store.
	f    *cnf.Formula
	tr   *proof.Trace
	held int64
}

// JobResult is a job's terminal outcome. Exactly one is ever recorded per
// job; it is immutable once written. Status/Code follow the exit-code
// contract, so a script driving the HTTP API and a script driving the dpv
// CLI classify outcomes identically.
type JobResult struct {
	// Status classifies the outcome; Code is the matching dpv exit code.
	Status Status `json:"status"`
	Code   int    `json:"code"`
	// Error carries the failure detail for non-verdict outcomes.
	Error string `json:"error,omitempty"`
	// Attempts counts verification attempts (1 normally; 2 when a worker
	// panic was retried on the fallback engine).
	Attempts int `json:"attempts"`
	// Verdict is the verification result proper — the same JSON shape dpv
	// -json emits — present only for verified/rejected outcomes.
	Verdict *core.Verdict `json:"verdict,omitempty"`
	// Core lists the unsat-core clause indices (verified jobs, sequential
	// check-marked mode only); /v1/jobs/{id}/core renders it as DIMACS.
	Core []int `json:"core,omitempty"`
}

// Terminal reports whether the result represents a verdict (as opposed to a
// resource-bounded or internal failure). Non-terminal statuses still end the
// job — the distinction only matters to clients deciding whether to retry.
func (r *JobResult) Terminal() bool {
	return r.Status == StatusVerified || r.Status == StatusRejected ||
		r.Status == StatusBadInput
}

// NewJobID returns a 16-byte random hex handle. IDs double as store
// directory names, so they must stay in [0-9a-f] — validated again by
// DiskStore against path traversal. Exported because the cluster router
// mints IDs itself: routing is by consistent hash of the ID, so the ID
// must exist before a shard is chosen.
func NewJobID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("service: job id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// ValidJobID reports whether id is a well-formed job handle: exactly 32
// lowercase-hex characters. IDs become store directory names and URL path
// segments, so anything else is refused — in particular path separators and
// their URL-encoded spellings (%2f, %5c, any case), which are rejected
// explicitly before the character-class check. The encoded forms could
// never pass the hex check anyway; rejecting them by name is defense in
// depth for IDs that arrive via headers or proxies, where no URL decoding
// has happened yet and a later decode would re-introduce the separator.
func ValidJobID(id string) bool {
	lower := strings.ToLower(id)
	if strings.Contains(lower, "%2f") || strings.Contains(lower, "%5c") {
		return false
	}
	if len(id) != 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// encodeJSON marshals v with a stable, newline-terminated encoding — the
// byte shape both the disk store and the HTTP responses use, so a result
// read back from disk is byte-identical to one served from memory.
func encodeJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

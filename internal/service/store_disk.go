package service

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/atomicio"
	"repro/internal/cnf"
	"repro/internal/proof"
)

// DiskStore is the crash-recoverable Store: one directory per job under
// root/jobs/, every file written through internal/atomicio (temp + fsync +
// rename), so each job is always in exactly one of three observable states:
//
//	absent            — admission never completed (a half-written directory
//	                    without job.json is garbage-collected at startup)
//	incomplete        — job.json + artifacts exist, result.json does not;
//	                    the restart path re-runs these, resuming from
//	                    ck.dpvj when the checkpoint journal validates
//	done              — result.json exists; immutable
//
// job.json is written last during Create and result.json is a single atomic
// rename, which makes those two files the commit points the Store contract
// requires.
type DiskStore struct {
	root string
}

// NewDiskStore opens (creating if needed) a disk-backed store rooted at
// dir and removes debris from admissions a crash cut short.
func NewDiskStore(dir string) (*DiskStore, error) {
	s := &DiskStore{root: dir}
	if err := os.MkdirAll(s.jobsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("service: disk store: %w", err)
	}
	if err := s.sweep(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *DiskStore) jobsDir() string      { return filepath.Join(s.root, "jobs") }
func (s *DiskStore) dir(id string) string { return filepath.Join(s.jobsDir(), id) }

// validID guards the "job ID as directory name" mapping: IDs are lowercase
// hex from NewJobID, and anything else — path separators, dots, and their
// URL-encoded spellings — is refused before touching the filesystem (see
// ValidJobID for the full hostile-ID policy).
func validID(id string) bool { return ValidJobID(id) }

// sweep removes job directories without a job.json — the leftovers of a
// Create interrupted before its commit point. The client never saw a 202
// for these, so deleting them loses nothing. Replica records interrupted
// before their result.json commit point are debris of the same class: the
// replicating router never got an ack, so it will re-replicate; a partial
// copy must not linger looking like a job. In the directories it keeps,
// sweep removes the temp files of atomic writes (artifacts, results,
// checkpoint records) that a crash cut short before their rename.
func (s *DiskStore) sweep() error {
	ents, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		dir := s.dir(e.Name())
		if _, err := os.Stat(filepath.Join(dir, "job.json")); os.IsNotExist(err) {
			if rerr := os.RemoveAll(dir); rerr != nil {
				return rerr
			}
			continue
		}
		if job, err := s.Job(e.Name()); err == nil && job.Replica {
			if _, err := os.Stat(filepath.Join(dir, "result.json")); os.IsNotExist(err) {
				if rerr := os.RemoveAll(dir); rerr != nil {
					return rerr
				}
				continue
			}
		}
		if err := atomicio.RemoveTemps(dir); err != nil {
			return err
		}
	}
	return nil
}

func (s *DiskStore) Create(job *Job, f *cnf.Formula, tr *proof.Trace) error {
	if !validID(job.ID) {
		return fmt.Errorf("service: invalid job id %q", job.ID)
	}
	dir := s.dir(job.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	commit := func() error {
		err := atomicio.WriteFile(filepath.Join(dir, "formula.cnf"), func(w io.Writer) error {
			return cnf.WriteDimacs(w, f)
		})
		if err != nil {
			return err
		}
		err = atomicio.WriteFile(filepath.Join(dir, "proof.trace"), func(w io.Writer) error {
			return proof.Write(w, tr)
		})
		if err != nil {
			return err
		}
		// job.json last: its appearance is what makes the job exist.
		return atomicio.WriteFile(filepath.Join(dir, "job.json"), func(w io.Writer) error {
			b, err := encodeJSON(job)
			if err != nil {
				return err
			}
			_, err = w.Write(b)
			return err
		})
	}
	if err := commit(); err != nil {
		// Leave nothing behind: a failed admission must be state "absent",
		// not a half-directory the client could never query.
		os.RemoveAll(dir)
		return err
	}
	return nil
}

func (s *DiskStore) Job(id string) (*Job, error) {
	if !validID(id) {
		return nil, ErrUnknownJob
	}
	b, err := os.ReadFile(filepath.Join(s.dir(id), "job.json"))
	if os.IsNotExist(err) {
		return nil, ErrUnknownJob
	}
	if err != nil {
		return nil, err
	}
	var job Job
	if err := json.Unmarshal(b, &job); err != nil {
		return nil, fmt.Errorf("service: corrupt job record %s: %w", id, err)
	}
	return &job, nil
}

// Formula parses the job's stored formula.cnf, the durable copy: the /core
// and /recheck endpoints read it, and Artifacts does for recovered jobs and
// jobs over the daemon's bound on held artifacts. Other runs verify the
// formula admission parsed and never read it back.
func (s *DiskStore) Formula(id string) (*cnf.Formula, error) {
	if !validID(id) {
		return nil, ErrUnknownJob
	}
	fin, err := os.Open(filepath.Join(s.dir(id), "formula.cnf"))
	if os.IsNotExist(err) {
		return nil, ErrUnknownJob
	}
	if err != nil {
		return nil, err
	}
	defer fin.Close()
	// The artifact was admitted through the limited parsers (or validated
	// on replication) and written by our own encoder; trusted here.
	f, err := cnf.ParseDimacs(fin)
	if err != nil {
		return nil, fmt.Errorf("service: corrupt formula artifact %s: %w", id, err)
	}
	return f, nil
}

func (s *DiskStore) Artifacts(id string) (*cnf.Formula, *proof.Trace, error) {
	f, err := s.Formula(id)
	if err != nil {
		return nil, nil, err
	}
	pin, err := os.Open(filepath.Join(s.dir(id), "proof.trace"))
	if os.IsNotExist(err) {
		return nil, nil, ErrUnknownJob // replica records carry no trace
	}
	if err != nil {
		return nil, nil, err
	}
	defer pin.Close()
	tr, err := proof.Read(pin)
	if err != nil {
		return nil, nil, fmt.Errorf("service: corrupt proof artifact %s: %w", id, err)
	}
	return f, tr, nil
}

func (s *DiskStore) SetResult(id string, jr *JobResult) error {
	if !validID(id) {
		return ErrUnknownJob
	}
	if _, err := os.Stat(filepath.Join(s.dir(id), "job.json")); os.IsNotExist(err) {
		return ErrUnknownJob
	}
	return atomicio.WriteFile(filepath.Join(s.dir(id), "result.json"), func(w io.Writer) error {
		b, err := encodeJSON(jr)
		if err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	})
}

func (s *DiskStore) SetLRAT(id string, lrat []byte) error {
	if !validID(id) {
		return ErrUnknownJob
	}
	if _, err := os.Stat(filepath.Join(s.dir(id), "job.json")); os.IsNotExist(err) {
		return ErrUnknownJob
	}
	return atomicio.WriteFile(filepath.Join(s.dir(id), "proof.lrat"), func(w io.Writer) error {
		_, err := w.Write(lrat)
		return err
	})
}

func (s *DiskStore) LRAT(id string) ([]byte, error) {
	if !validID(id) {
		return nil, ErrUnknownJob
	}
	b, err := os.ReadFile(filepath.Join(s.dir(id), "proof.lrat"))
	if os.IsNotExist(err) {
		if _, jerr := os.Stat(filepath.Join(s.dir(id), "job.json")); os.IsNotExist(jerr) {
			return nil, ErrUnknownJob
		}
		return nil, nil
	}
	return b, err
}

// PutReplica persists a verdict copy: formula + hinted proof + job record
// (Replica set) first, result.json last — the same commit-point discipline
// as Create/SetResult, so a torn replica (crash mid-write) is observable as
// "job.json marked replica, no result.json" and swept at the next open.
func (s *DiskStore) PutReplica(job *Job, f *cnf.Formula, jr *JobResult, lrat []byte) error {
	if !validID(job.ID) {
		return fmt.Errorf("service: invalid job id %q", job.ID)
	}
	if existing, err := s.Job(job.ID); err == nil && !existing.Replica {
		// This node owns the job natively; a replica copy must never
		// clobber the primary record (re-replicating onto an existing
		// replica, by contrast, is an idempotent overwrite).
		return fmt.Errorf("service: job %s exists locally; refusing replica overwrite", job.ID)
	}
	dir := s.dir(job.ID)
	fresh := false
	if _, err := os.Stat(filepath.Join(dir, "job.json")); os.IsNotExist(err) {
		fresh = true
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	commit := func() error {
		err := atomicio.WriteFile(filepath.Join(dir, "formula.cnf"), func(w io.Writer) error {
			return cnf.WriteDimacs(w, f)
		})
		if err != nil {
			return err
		}
		err = atomicio.WriteFile(filepath.Join(dir, "proof.lrat"), func(w io.Writer) error {
			_, err := w.Write(lrat)
			return err
		})
		if err != nil {
			return err
		}
		err = atomicio.WriteFile(filepath.Join(dir, "job.json"), func(w io.Writer) error {
			b, err := encodeJSON(job)
			if err != nil {
				return err
			}
			_, err = w.Write(b)
			return err
		})
		if err != nil {
			return err
		}
		// result.json last: its appearance is what makes the replica exist.
		return atomicio.WriteFile(filepath.Join(dir, "result.json"), func(w io.Writer) error {
			b, err := encodeJSON(jr)
			if err != nil {
				return err
			}
			_, err = w.Write(b)
			return err
		})
	}
	if err := commit(); err != nil {
		if fresh {
			os.RemoveAll(dir)
		}
		return err
	}
	return nil
}

func (s *DiskStore) Result(id string) (*JobResult, error) {
	if !validID(id) {
		return nil, ErrUnknownJob
	}
	b, err := os.ReadFile(filepath.Join(s.dir(id), "result.json"))
	if os.IsNotExist(err) {
		if _, jerr := os.Stat(filepath.Join(s.dir(id), "job.json")); os.IsNotExist(jerr) {
			return nil, ErrUnknownJob
		}
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var jr JobResult
	if err := json.Unmarshal(b, &jr); err != nil {
		return nil, fmt.Errorf("service: corrupt result record %s: %w", id, err)
	}
	return &jr, nil
}

func (s *DiskStore) Incomplete() ([]*Job, error) {
	ents, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return nil, err
	}
	var out []*Job
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.dir(e.Name()), "result.json")); err == nil {
			continue
		}
		job, err := s.Job(e.Name())
		if err == ErrUnknownJob {
			continue // swept-class debris racing a concurrent admission
		}
		if err != nil {
			return nil, err
		}
		if job.Replica {
			// A replica copy without its result commit is re-replication
			// debris, never runnable work (this shard has no trace for it).
			continue
		}
		out = append(out, job)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

func (s *DiskStore) MaxSeq() (uint64, error) {
	ents, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return 0, err
	}
	var max uint64
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		job, err := s.Job(e.Name())
		if err != nil {
			continue
		}
		if job.Seq > max {
			max = job.Seq
		}
	}
	return max, nil
}

func (s *DiskStore) JournalPath(id string) string {
	if !validID(id) {
		return ""
	}
	return filepath.Join(s.dir(id), "ck.dpvj")
}

// Ping writes and removes a probe file, the cheapest end-to-end check that
// the volume behind the store still accepts writes.
func (s *DiskStore) Ping() error {
	p := filepath.Join(s.root, ".probe")
	if err := os.WriteFile(p, []byte("ok\n"), 0o644); err != nil {
		return fmt.Errorf("service: store not writable: %w", err)
	}
	return os.Remove(p)
}

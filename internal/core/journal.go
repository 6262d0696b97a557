package core

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/journal"
)

// Journal is one run's checkpoint file (internal/journal) from start to
// close-out. StartJournal decides whether the file's record may seed the
// run — the same decision Verify makes on CheckpointConfig.Resume — so
// every caller resumes by the same rule.
type Journal struct {
	path string
}

// StartJournal opens the checkpoint file at path for a run of f against a
// proof of m clauses whose fingerprint is proofFP (journal.FingerprintTrace,
// or a DRUP proof's own). The run is a Verify that checkpoints every `every`
// proof clauses with opt's mode, engine and hint recording.
//
// With resume set it reads the file already at path and resumes from its
// record when the file matches the run and the record fits it; otherwise
// warn says why not, for the caller to print or log (it wraps
// journal.ErrNoJournal when there was no file). A run that does not resume
// removes any stale file at path. It sets opt.Checkpoint's Every, Sink and
// Resume; the Sink replaces the file's record with each new one, and
// callers may wrap it. On err (the stale file could not be removed) opt is
// unchanged.
func StartJournal(path string, f *cnf.Formula, m int, proofFP uint64, opt *Options, every int, resume bool) (j *Journal, warn, err error) {
	meta := journal.Meta{
		Mode:      uint8(opt.Mode),
		Engine:    uint8(opt.Engine),
		Interval:  uint32(every),
		FormulaFP: journal.FingerprintFormula(f),
		ProofFP:   proofFP,
	}
	var cp *Checkpoint
	if resume {
		var payload []byte
		if payload, warn = journal.Open(path, meta, opt.Obs); warn == nil {
			if cp, warn = DecodeCheckpoint(payload); warn == nil {
				warn = cp.fit(len(f.Clauses), m, opt.Hints != nil)
			}
		}
		if warn != nil {
			cp = nil
		}
	}
	if cp == nil {
		if err := journal.Remove(path); err != nil {
			return nil, warn, err
		}
	}
	reg := opt.Obs
	sink := func(payload []byte) error { return journal.Write(path, meta, payload, reg) }
	opt.Checkpoint = CheckpointConfig{Every: every, Sink: sink, Resume: cp}
	return &Journal{path: path}, warn, nil
}

// Finish closes the journal out with the run's outcome. A verdict (err ==
// nil) makes the file stale, so it is removed. A run that stopped before
// one leaves the file as it is, for a later resume.
func (j *Journal) Finish(err error) error {
	if err != nil {
		return nil
	}
	if rerr := journal.Remove(j.path); rerr != nil {
		return fmt.Errorf("journal remove: %w", rerr)
	}
	return nil
}

package core

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/journal"
)

// Journal is one run's checkpoint journal (internal/journal) from start to
// close-out. StartJournal decides whether the old journal's last record may
// seed the run — the same decision Verify makes on CheckpointConfig.Resume —
// so every caller resumes by the same rule.
type Journal struct {
	w *journal.Writer
}

// StartJournal opens the checkpoint journal at path for a run of f against
// a proof of m clauses whose fingerprint is proofFP (journal.FingerprintTrace,
// or a DRUP proof's own). The run is a Verify that checkpoints every `every`
// proof clauses with opt's mode, engine and hint recording.
//
// With resume set it reads the journal already at path and resumes from its
// last record when the journal matches the run and the record fits it;
// otherwise warn says why not, for the caller to print or log (it wraps
// journal.ErrNoJournal when there was no journal). Either way it
// creates a fresh journal at path, re-appends the resumed record so no
// durable progress is lost, and sets opt.Checkpoint's Every, Sink and
// Resume; callers may wrap the Sink. On err no journal was started and opt
// is unchanged.
func StartJournal(path string, f *cnf.Formula, m int, proofFP uint64, opt *Options, every int, resume bool) (j *Journal, warn, err error) {
	meta := journal.Meta{
		Kind:      journal.KindVerifySeq,
		Mode:      uint8(opt.Mode),
		Engine:    uint8(opt.Engine),
		Interval:  uint32(every),
		FormulaFP: journal.FingerprintFormula(f),
		ProofFP:   proofFP,
	}
	var cp *Checkpoint
	var payload []byte
	if resume {
		payload, warn = journal.Open(path, meta, opt.Obs)
		if warn == nil {
			if cp, warn = DecodeCheckpoint(payload); warn == nil {
				warn = cp.fit(len(f.Clauses), m, opt.Hints != nil)
			}
		}
		if warn != nil {
			cp, payload = nil, nil
		}
	}
	w, err := journal.Create(path, meta, opt.Obs)
	if err != nil {
		return nil, warn, err
	}
	if payload != nil {
		if err := w.Append(payload); err != nil {
			w.Close()
			return nil, warn, err
		}
	}
	opt.Checkpoint = CheckpointConfig{Every: every, Sink: w.Append, Resume: cp}
	return &Journal{w: w}, warn, nil
}

// Finish closes the journal out with the run's outcome. A verdict (err ==
// nil) makes the journal stale, so it is removed. A run that stopped before
// one gets a final "incomplete" record noting where it stopped (res may be
// nil); resume skips final records and restarts from the last checkpoint.
func (j *Journal) Finish(res *Result, err error) error {
	if err == nil {
		if rerr := j.w.Remove(); rerr != nil {
			return fmt.Errorf("journal remove: %w", rerr)
		}
		return nil
	}
	defer j.w.Close()
	note := fmt.Sprintf("incomplete err=%v", err)
	if res != nil {
		note = fmt.Sprintf("incomplete stopped_at=%d tested=%d err=%v", res.StoppedAt, res.Tested, err)
	}
	if ferr := j.w.AppendFinal([]byte(note)); ferr != nil {
		return fmt.Errorf("journal final record: %w", ferr)
	}
	return nil
}

package drat

import "repro/internal/cnf"

// Recorder accumulates a DRUP proof from a solver's OnLearn/OnDelete
// hooks:
//
//	rec := drat.NewRecorder()
//	opts.OnLearn, opts.OnDelete = rec.Learn, rec.Delete
//	... solve ...
//	res, err := drat.Verify(ctx, f, rec.Proof())
type Recorder struct {
	p Proof
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Learn records a clause addition.
func (r *Recorder) Learn(c cnf.Clause) { r.p.Add(c) }

// Delete records a clause deletion.
func (r *Recorder) Delete(c cnf.Clause) { r.p.Delete(c) }

// Proof returns the accumulated proof (shared, not copied).
func (r *Recorder) Proof() *Proof { return &r.p }

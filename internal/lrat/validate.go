package lrat

import (
	"bytes"
	"fmt"

	"repro/internal/cnf"
)

// Validation is the trust boundary for verdicts that arrive over a wire
// instead of being computed locally. A replica receiving "formula F is
// unsatisfiable, here is the hinted proof" must not take the sender's word
// for it: Validate re-derives the claim from the formula and the proof
// bytes alone, so a corrupted, truncated or forged proof is rejected before
// the verdict is ever stored or served. This is what makes replication in
// internal/cluster integrity-checking rather than byte-copying.

// ValidationError reports why incoming proof bytes do not establish the
// claimed verdict. It is the typed rejection the replication protocol
// requires: a replica answers it with "rejected, do not retry with the same
// bytes", never with an ack.
type ValidationError struct {
	// Stage names the phase that failed: "parse" or "check".
	Stage string
	// Step is the failing step index for check failures, -1 otherwise.
	Step int
	// Reason is the human-readable cause.
	Reason string
}

func (e *ValidationError) Error() string {
	if e.Step >= 0 {
		return fmt.Sprintf("lrat: verdict validation failed (%s, step %d): %s", e.Stage, e.Step, e.Reason)
	}
	return fmt.Sprintf("lrat: verdict validation failed (%s): %s", e.Stage, e.Reason)
}

// Validate checks that proofBytes is a well-formed LRAT proof (text or
// binary, auto-detected) that refutes f. The bytes are treated as
// untrusted: parsing runs under lim (zero-value fields take the parser
// defaults). On success the check result is returned; when the bytes do
// not establish the refutation the error is a *ValidationError; any other
// error is environmental (context cancellation via opt.Ctx).
func Validate(f *cnf.Formula, proofBytes []byte, lim cnf.ParseLimits, opt Options) (*Result, error) {
	var p *Proof
	var err error
	if DetectBinary(proofBytes) {
		p, err = ReadBinaryLimited(bytes.NewReader(proofBytes), lim)
	} else {
		p, err = ReadLimited(bytes.NewReader(proofBytes), lim)
	}
	if err != nil {
		return nil, &ValidationError{Stage: "parse", Step: -1, Reason: err.Error()}
	}
	res, err := Check(f, p, opt)
	if err != nil {
		// Cancellation/deadline from opt.Ctx: not a verdict on the bytes.
		return res, err
	}
	if !res.OK {
		return res, &ValidationError{Stage: "check", Step: res.FailedStep, Reason: res.Reason}
	}
	if !res.Refuted {
		return res, &ValidationError{Stage: "check", Step: -1,
			Reason: "proof checks but derives no empty clause (not a refutation)"}
	}
	return res, nil
}

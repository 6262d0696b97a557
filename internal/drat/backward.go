package drat

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/bcp"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/proof"
)

// Fingerprint hashes the proof's logical content — step kinds and literals
// in order — with FNV-64a, for binding a checkpoint journal to its inputs.
func (p *Proof) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(len(p.Steps)))
	for _, s := range p.Steps {
		if s.Del {
			put(1)
		} else {
			put(0)
		}
		put(int64(len(s.C)))
		for _, l := range s.C {
			put(int64(l.Dimacs()))
		}
	}
	return h.Sum64()
}

// TraceLen is the length of the trace VerifyBackward checks — the count its
// checkpoints are made against: the additions before the first empty
// clause, closed by that clause or by an appended one.
func (p *Proof) TraceLen() int {
	n := 1
	for _, s := range p.Steps {
		if s.Del {
			continue
		}
		if len(s.C) == 0 {
			break
		}
		n++
	}
	return n
}

// VerifyBackward checks a DRUP proof the way drat-trim does — which is
// exactly the paper's Proof_verification2 generalized to deletion lines.
// It is a format front end over core.Verify:
//
//  1. A structural scan gives each addition its clause slot (formula
//     clauses first, then additions in order), resolves every deletion
//     line by content to the live clause it removes — rejecting deletions
//     of clauses that are not live — and stops at the first empty clause.
//  2. The additions, closed by that empty clause (or by an appended one
//     when the proof has none, which makes the check "the final database
//     is refuted by unit propagation alone"), become a proof.Trace whose
//     deletion schedule holds the resolved deletions.
//  3. core.Verify walks the trace backward: it undoes deletions on the way
//     and checks an addition by the RUP test only if a later conflict
//     marked it as used.
//
// opt passes through unchanged, so checkpoint intervals and resume points
// count additions (the closing empty clause included), and a resumable
// record is a core.Checkpoint. The trace always carries a schedule, even an
// empty one, so the engine is always the watched engine, which suspends
// the deleted clauses, and opt.Engine must be left at its default.
//
// Unmarked additions are skipped — the same redundancy argument as the
// paper's §4 — and the marked additions form the trimmed proof, returned
// as a deletion-free DRUP proof in chronological order closed by the empty
// clause. The marked original clauses form an unsatisfiable core, also as
// in §4. Only the RUP check is used: RAT additions, which the forward
// Verify accepts, are rejected here, matching the paper's scope.
func VerifyBackward(f *cnf.Formula, p *Proof, opt core.Options) (*Result, *Proof, []int, error) {
	res := &Result{OK: true, FailedStep: -1, StoppedAt: -1}
	nf := len(f.Clauses)
	live := newLiveKeys()
	for i, c := range f.Clauses {
		live.add(bcp.ID(i), c)
	}
	// Deletions[i] collects the deletions seen since trace clause i-1, so
	// the schedule always has one entry more than the additions so far.
	t := &proof.Trace{Deletions: [][]int{nil}}
	var stepOf []int // stepOf[i] is the proof step of trace clause i
	lastStep := len(p.Steps) - 1
	for i, s := range p.Steps {
		if s.Del {
			res.Deletions++
			id, ok := live.remove(s.C)
			if !ok {
				res.OK = false
				res.FailedStep = i
				res.Reason = fmt.Sprintf("deletion of a clause that is not live: %v", s.C)
				opt.Obs.TraceTrack().Instant("verify.reject", int64(i))
				return res, nil, nil, nil
			}
			k := len(t.Deletions) - 1
			t.Deletions[k] = append(t.Deletions[k], int(id))
			continue
		}
		res.Additions++
		if len(s.C) == 0 {
			lastStep = i
			break
		}
		live.add(bcp.ID(nf+len(t.Clauses)), s.C)
		t.Clauses = append(t.Clauses, s.C)
		t.Deletions = append(t.Deletions, nil)
		stepOf = append(stepOf, i)
	}
	t.Clauses = append(t.Clauses, nil)
	stepOf = append(stepOf, lastStep)
	final := len(t.Clauses) - 1

	cres, err := core.Verify(f, t, opt)
	if cres == nil {
		return nil, nil, nil, err
	}
	res.Tautologies = cres.Tautologies
	res.Propagations = cres.Propagations
	if err != nil {
		res.Incomplete = cres.Incomplete
		if cres.StoppedAt >= 0 {
			res.StoppedAt = stepOf[cres.StoppedAt]
		}
		return res, nil, nil, err
	}
	if !cres.OK {
		res.OK = false
		if i := cres.FailedIndex; i == final {
			res.FailedStep = lastStep + 1
			res.Reason = "proof ends without deriving a refutation"
		} else {
			res.FailedStep = stepOf[i]
			res.Reason = fmt.Sprintf("marked clause is not RUP: %v", t.Clauses[i])
		}
		return res, nil, nil, nil
	}
	res.Refuted = true

	// Trimmed proof: marked additions in chronological order (no deletion
	// lines — the trimmed set is small enough not to need them), plus the
	// final empty clause so the result is a complete refutation.
	trimmed := &Proof{}
	for i, used := range cres.UsedProof[:final] {
		if used {
			trimmed.Add(t.Clauses[i].Clone())
		}
	}
	trimmed.Add(nil)
	return res, trimmed, cres.Core, nil
}

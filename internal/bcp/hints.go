package bcp

import (
	"cmp"
	"slices"

	"repro/internal/cnf"
)

// Ordered-antecedent extraction for LRAT hint emission. ConflictHints is the
// hint-producing sibling of WalkConflict: where the walk only marks the
// clauses involved in a conflict, ConflictHints returns them in an order that
// makes the conflict re-derivable by unit replay alone — the LRAT hint-order
// invariant.
//
// The order is the engine's own propagation order: every reason clause is
// emitted at its implied variable's trail position, ascending, with the
// falsified clause last. By the enqueue invariant, a reason's other literals
// were all false at strictly earlier trail positions (or are assumptions), so
// the sequence is *almost* replayable as-is. Almost, because the LRAT replay
// assigns exactly the negation of the refuted clause while the engine may
// have been in a different state when it found the conflict: a refuted
// clause can mention a variable the root trail has already assigned — with
// either polarity. Under the replay assignment a reason involved in the
// engine's conflict can therefore be satisfied (it contributes nothing) or
// even falsified outright (the replay reaches its contradiction early, before
// the engine's own conflict clause).
//
// So the emission runs the replay for real: phase 2 simulates the checker,
// scanning each candidate under the accumulated assignment — satisfied
// clauses are dropped, a falsified clause terminates the chain as the final
// conflict, and unit clauses are emitted with their implied literal assigned.
// What survives is, by construction, exactly a sequence the checker accepts.
//
// Why the simulation never gets stuck (every candidate is satisfied, unit or
// falsified, never 2+ unassigned): call a candidate a "problem" if its
// engine-implied literal is false under replay (possible only for variables
// the refuted clause mentions with the engine's polarity — root-clash
// variables). Before the first problem in trail order, every walked variable
// at earlier positions is replay-assigned (unit candidates assign theirs;
// satisfied candidates at earlier positions would themselves be problems,
// except those implied by the replay assumptions directly, whose variables
// are assigned by ¬C), so a reason's other literals are all false and the
// first problem clause is falsified — truncating the chain. If no problem
// exists, polarities agree everywhere, each candidate is unit, and the
// engine's conflict clause is falsified last.

// hintCand is one reason clause considered for the hint sequence.
type hintCand struct {
	v   cnf.Var // variable the clause implies
	pos int32   // trail position of that variable
	id  ID      // the reason clause
}

// hintScratch is an engine's ConflictHints scratch, kept across calls so a
// hinted conflict allocates nothing once the slices have grown: the
// candidate reasons, the walk stack, and the undo list of the replay
// assignment.
type hintScratch struct {
	cands    []hintCand
	stack    []cnf.Lit
	litReset []cnf.Lit
}

// engineConflictHints implements ConflictHints for both engines given
// accessors for clause literals and trail positions. seen/seenReset are the
// engine's per-variable walk scratch; litMark is a per-literal scratch for
// the replay assignment (true = literal assigned true).
func engineConflictHints(
	conflict ID,
	refuted cnf.Clause,
	dst []ID,
	lits func(ID) []cnf.Lit,
	reason []ID,
	pos func(cnf.Var) int32,
	seen []bool,
	seenReset *[]cnf.Var,
	litMark []bool,
	sc *hintScratch,
) []ID {
	dst = dst[:0]
	if conflict == NoConflict {
		return dst
	}

	// Phase 1: the conflict walk, collecting each involved reason clause with
	// the trail position of its implied variable.
	cands := sc.cands[:0]
	stack := append(sc.stack[:0], lits(conflict)...)
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := l.Var()
		if seen[v] {
			continue
		}
		seen[v] = true
		*seenReset = append(*seenReset, v)
		r := reason[v]
		if r == reasonAssumption {
			continue
		}
		cands = append(cands, hintCand{v: v, pos: pos(v), id: r})
		for _, rl := range lits(r) {
			if rl.Var() != v {
				stack = append(stack, rl)
			}
		}
	}
	sc.cands, sc.stack = cands, stack
	for _, v := range *seenReset {
		seen[v] = false
	}
	*seenReset = (*seenReset)[:0]
	slices.SortFunc(cands, func(a, b hintCand) int { return cmp.Compare(a.pos, b.pos) })

	// Phase 2: replay simulation (see the package comment above).
	assign := func(l cnf.Lit) {
		if !litMark[l] {
			litMark[l] = true
			sc.litReset = append(sc.litReset, l)
		}
	}
	clearLits := func() {
		for _, l := range sc.litReset {
			litMark[l] = false
		}
		sc.litReset = sc.litReset[:0]
	}
	for _, l := range refuted {
		assign(l.Neg())
	}
	for _, c := range cands {
		cl := lits(c.id)
		sat := false
		unassigned := 0
		unit := cnf.LitUndef
		for _, rl := range cl {
			if litMark[rl] {
				sat = true
				break
			}
			if !litMark[rl.Neg()] && rl != unit {
				unassigned++
				unit = rl
			}
		}
		switch {
		case sat:
			// Satisfied under replay: contributes nothing to the derivation.
		case unassigned == 0:
			// Falsified before the engine's own conflict clause: the replay
			// reaches its contradiction here, closing the chain early.
			clearLits()
			return append(dst, c.id)
		default:
			// Unit (the 2+ case is unreachable, argued above). Note the
			// unassigned literal need not be the engine-implied one when
			// polarities disagree; the replay's choice is what counts.
			dst = append(dst, c.id)
			assign(unit)
		}
	}
	clearLits()
	return append(dst, conflict)
}

// ConflictHints implements Propagator. See engineConflictHints.
func (e *Engine) ConflictHints(conflict ID, refuted cnf.Clause, dst []ID) []ID {
	return engineConflictHints(conflict, refuted, dst,
		e.lits, e.reason,
		func(v cnf.Var) int32 { return e.varPos[v] },
		e.seen, &e.seenReset, e.litMark, &e.hintBuf)
}

// ConflictHints implements Propagator. The counting engine keeps no
// per-variable trail index, so positions are recovered with one scan of the
// (per-Refute, non-persistent) trail.
func (e *Counting) ConflictHints(conflict ID, refuted cnf.Clause, dst []ID) []ID {
	pos := make(map[cnf.Var]int32, len(e.trail))
	for i, l := range e.trail {
		pos[l.Var()] = int32(i)
	}
	for len(e.litMark) < 2*len(e.seen) {
		e.litMark = append(e.litMark, false)
	}
	return engineConflictHints(conflict, refuted, dst,
		func(id ID) []cnf.Lit { return e.clauses[id].lits }, e.reason,
		func(v cnf.Var) int32 { return pos[v] },
		e.seen, &e.seenReset, e.litMark, &e.hintBuf)
}

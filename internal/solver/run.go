package solver

import (
	"repro/internal/cnf"
	"repro/internal/proof"
)

// Run executes the CDCL search until a result or the conflict budget is
// exhausted. After Unsat, Trace() holds the chronological conflict-clause
// proof ending in the paper's final conflicting pair (or a single empty
// clause when the input itself contained one). Run is RunAssuming with no
// assumptions; see assume.go for the full search loop.
func (s *Solver) Run() Status {
	return s.RunAssuming(nil)
}

// addLearnt installs a freshly derived conflict clause: attach it (when long
// enough to watch), then assert its first literal. The clause was emitted to
// the proof before this call.
func (s *Solver) addLearnt(lits []cnf.Lit) {
	c := &clause{
		lits:    append([]cnf.Lit(nil), lits...),
		learned: true,
		id:      s.nOriginal + int(s.stats.Learned) - 1, // emit already counted it
		act:     float32(s.claInc),
	}
	s.learnts = append(s.learnts, c)
	if len(c.lits) >= 2 {
		s.attach(c)
	}
	if !s.enqueue(c.lits[0], c) {
		// The asserting literal is already false: this is an immediate
		// top-level conflict (only possible for unit learnt clauses after
		// backjumping to level 0); the main loop's next propagate cannot
		// see it, so flag via a synthetic falsified state. We handle it by
		// leaving the clause falsified; propagate() will not detect unit
		// clauses, so detect here.
		panic("solver: asserting literal rejected — internal invariant broken")
	}
}

// finalize handles a conflict at decision level 0: it derives and emits the
// final conflicting pair of unit clauses by trail-ordered resolution, so the
// proof trace ends exactly as the paper prescribes.
func (s *Solver) finalize(confl *clause) {
	// --- Unit A: resolve the falsified clause backwards until a single
	// literal remains.
	count := 0
	for _, q := range confl.lits {
		v := q.Var()
		if !s.seen[v] {
			s.mark(v)
			count++
		}
	}
	chainA := []int{confl.id}
	if !s.opts.RecordChains {
		chainA = nil
	}
	var resA int64
	var uLit cnf.Lit = cnf.LitUndef
	uIdx := -1
	for idx := len(s.trail) - 1; idx >= 0; idx-- {
		l := s.trail[idx]
		v := l.Var()
		if !s.seen[v] {
			continue
		}
		if count == 1 {
			uLit = l.Neg() // the clause retains the falsified literal of v
			uIdx = idx
			break
		}
		r := s.reason[v]
		if r == nil {
			break // defensive: cannot happen at level 0
		}
		count--
		s.seen[v] = false
		resA++
		if chainA != nil {
			chainA = append(chainA, r.id)
		}
		for _, q := range r.lits {
			w := q.Var()
			if w == v || s.seen[w] {
				continue
			}
			s.mark(w)
			count++
		}
	}
	s.clearSeen()
	if uLit == cnf.LitUndef {
		// Degenerate: resolution eliminated everything (should not happen;
		// emit an explicit empty clause so the trace still terminates).
		s.emit(nil, resA, chainA)
		return
	}
	s.emit([]cnf.Lit{uLit}, resA, chainA)

	// --- Unit B: uLit's variable was assigned the opposite value by some
	// reason clause; resolving that reason's other literals away yields the
	// complementary unit.
	v := uLit.Var()
	r0 := s.reason[v]
	tLit := uLit.Neg() // the literal that is true under the level-0 trail
	if r0 == nil {
		// Defensive: without a reason we cannot derive the complement;
		// emit it anyway (it will fail verification, exposing the bug).
		s.emit([]cnf.Lit{tLit}, 0, nil)
		return
	}
	chainB := []int{r0.id}
	if !s.opts.RecordChains {
		chainB = nil
	}
	var resB int64
	count = 0
	for _, q := range r0.lits {
		w := q.Var()
		if w == v || s.seen[w] {
			continue
		}
		s.mark(w)
		count++
	}
	for idx := uIdx - 1; idx >= 0 && count > 0; idx-- {
		l := s.trail[idx]
		w := l.Var()
		if !s.seen[w] {
			continue
		}
		r := s.reason[w]
		if r == nil {
			break // defensive
		}
		count--
		s.seen[w] = false
		resB++
		if chainB != nil {
			chainB = append(chainB, r.id)
		}
		for _, q := range r.lits {
			x := q.Var()
			if x == w || s.seen[x] {
				continue
			}
			s.mark(x)
			count++
		}
	}
	s.clearSeen()
	s.emit([]cnf.Lit{tLit}, resB, chainB)
}

// Solve is a one-shot helper: build a solver for f, run it, and return the
// status together with the proof trace (for Unsat), the model (for Sat) and
// the statistics. The error reports a failed write to Options.ProofWriter.
func Solve(f *cnf.Formula, opts Options) (Status, *proof.Trace, []bool, Stats, error) {
	s := NewFromFormula(f, opts)
	st := s.Run()
	var model []bool
	if st == Sat {
		model = s.Model()
	}
	return st, s.Trace(), model, s.Stats(), s.WriteError()
}

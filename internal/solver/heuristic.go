package solver

import "repro/internal/cnf"

// varHeap is an indexed binary max-heap over variable activities.
type varHeap struct {
	s     *Solver
	heap  []cnf.Var
	index []int32 // position of var in heap, -1 when absent
}

func newVarHeap(s *Solver) *varHeap {
	h := &varHeap{s: s, index: make([]int32, s.nVars)}
	for i := range h.index {
		h.index[i] = -1
	}
	return h
}

func (h *varHeap) less(a, b cnf.Var) bool {
	return h.s.activity[a] > h.s.activity[b]
}

func (h *varHeap) contains(v cnf.Var) bool { return h.index[v] >= 0 }

func (h *varHeap) push(v cnf.Var) {
	h.heap = append(h.heap, v)
	h.index[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v cnf.Var) {
	if !h.contains(v) {
		h.push(v)
	}
}

func (h *varHeap) pop() (cnf.Var, bool) {
	if len(h.heap) == 0 {
		return cnf.VarUndef, false
	}
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.index[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.index[top] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return top, true
}

// bumped restores heap order after v's activity increased.
func (h *varHeap) bumped(v cnf.Var) {
	if i := h.index[v]; i >= 0 {
		h.up(int(i))
	}
}

// rebuild re-heapifies after a global activity rescale (order is preserved
// by uniform scaling, so this is only needed if activities were mutated
// non-uniformly; kept for safety).
func (h *varHeap) rebuild() {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.index[h.heap[i]] = int32(i)
		i = parent
	}
	h.heap[i] = v
	h.index[v] = int32(i)
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && h.less(h.heap[child+1], h.heap[child]) {
			child++
		}
		if !h.less(h.heap[child], v) {
			break
		}
		h.heap[i] = h.heap[child]
		h.index[h.heap[i]] = int32(i)
		i = child
	}
	h.heap[i] = v
	h.index[v] = int32(i)
}

// --- activity bookkeeping -------------------------------------------------

const (
	activityRescale = 1e100
	litActRescale   = 1e100
)

func (s *Solver) bumpVar(v cnf.Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > activityRescale {
		for i := range s.activity {
			s.activity[i] *= 1 / activityRescale
		}
		s.varInc *= 1 / activityRescale
		s.order.rebuild()
	}
	s.order.bumped(v)
}

// bumpLit maintains BerkMin's per-literal counters used to choose branch
// polarity: literals that occur in recent conflict clauses are preferred.
func (s *Solver) bumpLit(l cnf.Lit) {
	s.litAct[l] += s.varInc
	if s.litAct[l] > litActRescale {
		for i := range s.litAct {
			s.litAct[i] *= 1 / litActRescale
		}
	}
}

func (s *Solver) bumpClause(c *clause) {
	c.act += float32(s.claInc)
	if c.act > 1e20 {
		for _, lc := range s.learnts {
			lc.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayActivities() {
	s.varInc *= 1 / varDecay
	s.claInc *= 1 / clauseDecay
}

// --- branching -------------------------------------------------------------

// pickBranchLit selects the next decision literal, or LitUndef when every
// variable is assigned (the formula is satisfied).
func (s *Solver) pickBranchLit() cnf.Lit {
	if s.opts.Heuristic == HeurBerkMin {
		if l := s.pickBerkMin(); l != cnf.LitUndef {
			return l
		}
	}
	return s.pickVSIDS()
}

// pickVSIDS pops the most active unassigned variable and applies the saved
// phase (default negative polarity, as in early CDCL solvers).
func (s *Solver) pickVSIDS() cnf.Lit {
	for {
		v, ok := s.order.pop()
		if !ok {
			return cnf.LitUndef
		}
		if s.assigns[v] != 0 {
			continue
		}
		return s.litForVar(v)
	}
}

// pickBerkMin implements BerkMin's decision strategy: find the topmost
// (most recently learned) clause in the learned-clause stack that is not yet
// satisfied and branch on its most active unassigned variable. When every
// learned clause is satisfied (or none exist) it falls back to VSIDS by
// returning LitUndef.
func (s *Solver) pickBerkMin() cnf.Lit {
	// BerkMin maintains a moving pointer to the top unsatisfied clause; we
	// approximate with a bounded scan from the top of the stack (the newest
	// learned clause is asserting, hence usually unsatisfied within a few
	// entries) and fall back to VSIDS beyond the bound, keeping decisions
	// O(1) amortized instead of O(|learnts|).
	const scanBound = 64
	lo := len(s.learnts) - scanBound
	if lo < 0 {
		lo = 0
	}
	for i := len(s.learnts) - 1; i >= lo; i-- {
		c := s.learnts[i]
		if s.satisfied(c) {
			continue
		}
		var best cnf.Var = cnf.VarUndef
		for _, l := range c.lits {
			v := l.Var()
			if s.assigns[v] != 0 {
				continue
			}
			if best == cnf.VarUndef || s.activity[v] > s.activity[best] {
				best = v
			}
		}
		if best == cnf.VarUndef {
			// Unsatisfied clause with all variables assigned would be a
			// missed conflict; propagation guarantees this cannot happen.
			continue
		}
		return s.litForVar(best)
	}
	return cnf.LitUndef
}

// litForVar chooses the polarity for a branch variable: BerkMin-style
// literal counters first, then the saved phase, then negative.
func (s *Solver) litForVar(v cnf.Var) cnf.Lit {
	pos, neg := s.litAct[cnf.PosLit(v)], s.litAct[cnf.NegLit(v)]
	switch {
	case pos > neg:
		return cnf.PosLit(v)
	case neg > pos:
		return cnf.NegLit(v)
	}
	if s.phase[v] == 1 {
		return cnf.PosLit(v)
	}
	return cnf.NegLit(v)
}

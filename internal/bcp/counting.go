package bcp

import "repro/internal/cnf"

// Counting is the naive counter-based propagator used as the ablation
// baseline against the watched-literal Engine. Every clause keeps a counter
// of currently-false literals; every literal keeps an occurrence list. An
// assignment touches every clause containing the complement literal, so
// long clauses — the common case inside conflict clause proofs — are visited
// far more often than under two-watched-literal propagation.
type Counting struct {
	nVars   int
	clauses []countClause
	occurs  [][]ID // indexed by literal: clauses containing it

	units  []ID
	empty  []ID
	nEmpty int // active empty count (maintained on Add/Deactivate)

	assign []int8
	reason []ID
	trail  []cnf.Lit
	qhead  int

	seen      []bool
	seenReset []cnf.Var

	litMark []bool      // per-literal scratch for ConflictHints' replay
	hintBuf hintScratch // the rest of ConflictHints' scratch

	stopState

	propagations int64
	refutations  int64
	conflicts    int64
	occTouches   int64
}

type countClause struct {
	lits   cnf.Clause
	nFalse int32
	active bool
}

var _ Propagator = (*Counting)(nil)

// NewCounting returns a counter-based engine over n variables.
func NewCounting(n int) *Counting {
	e := &Counting{nVars: n}
	e.growTo(n)
	return e
}

func (e *Counting) growTo(n int) {
	if n < e.nVars {
		n = e.nVars
	}
	for len(e.assign) < n {
		e.assign = append(e.assign, 0)
		e.reason = append(e.reason, reasonAssumption)
		e.seen = append(e.seen, false)
		e.occurs = append(e.occurs, nil, nil)
	}
	e.nVars = n
}

// NumClauses returns how many clauses were added.
func (e *Counting) NumClauses() int { return len(e.clauses) }

// Propagations returns the cumulative number of implied assignments.
func (e *Counting) Propagations() int64 { return e.propagations }

// Stats returns the cumulative work counters.
func (e *Counting) Stats() Stats {
	return Stats{
		Propagations: e.propagations,
		Refutations:  e.refutations,
		Conflicts:    e.conflicts,
		OccTouches:   e.occTouches,
	}
}

// Add inserts a clause and returns its ID.
func (e *Counting) Add(c cnf.Clause) ID {
	norm, taut := c.Normalize()
	if mv := norm.MaxVar(); int(mv) >= e.nVars {
		e.growTo(int(mv) + 1)
	}
	id := ID(len(e.clauses))
	e.clauses = append(e.clauses, countClause{lits: norm, active: !taut})
	if taut {
		return id
	}
	switch len(norm) {
	case 0:
		e.empty = append(e.empty, id)
		e.nEmpty++
	case 1:
		e.units = append(e.units, id)
	default:
		for _, l := range norm {
			e.occurs[l] = append(e.occurs[l], id)
		}
	}
	return id
}

// Reset empties the engine in place, keeping capacity; see Engine.Reset.
func (e *Counting) Reset() {
	e.reset()
	e.clauses = e.clauses[:0]
	for l := range e.occurs {
		e.occurs[l] = e.occurs[l][:0]
	}
	e.units, e.empty, e.nEmpty = e.units[:0], e.empty[:0], 0
	e.stopErr, e.countdown = nil, 0
	e.propagations, e.refutations, e.conflicts, e.occTouches = 0, 0, 0, 0
}

// Deactivate removes the clause from future propagations.
func (e *Counting) Deactivate(id ID) {
	c := &e.clauses[id]
	if !c.active {
		return
	}
	c.active = false
	if len(c.lits) == 0 {
		e.nEmpty--
	}
}

// Reactivate implements Propagator. The counting engine has no Suspend, so
// no clause of it can be brought back.
func (e *Counting) Reactivate(ID) error { return ErrNotReactivable }

func (e *Counting) reset() {
	for i, l := range e.trail {
		v := l.Var()
		e.assign[v] = 0
		e.reason[v] = reasonAssumption
		// Counters were bumped only for dequeued literals (trail[:qhead]);
		// roll back exactly those.
		if i < e.qhead {
			for _, id := range e.occurs[l.Neg()] {
				e.clauses[id].nFalse--
			}
		}
	}
	e.trail = e.trail[:0]
	e.qhead = 0
}

func (e *Counting) enqueue(l cnf.Lit, why ID) bool {
	switch litValue(e.assign, l) {
	case 1:
		return true
	case -1:
		return false
	}
	assignLit(e.assign, l)
	e.reason[l.Var()] = why
	e.trail = append(e.trail, l)
	// Counters are updated when the literal is dequeued in propagate, so
	// that reset can roll back exactly the trail's worth of increments.
	if why != reasonAssumption {
		e.propagations++
	}
	return true
}

// Refute implements Propagator.
func (e *Counting) Refute(c cnf.Clause) (ID, bool) {
	p0, o0 := e.propagations, e.occTouches
	conflict, selfContra := e.refute(c)
	if t := e.trace; t != nil {
		t.CounterPair("bcp.propagations", e.propagations-p0,
			"bcp.occ_touches", e.occTouches-o0)
	}
	return conflict, selfContra
}

func (e *Counting) refute(c cnf.Clause) (ID, bool) {
	if mv := c.MaxVar(); int(mv) >= e.nVars {
		e.growTo(int(mv) + 1)
	}
	e.reset()
	e.refutations++
	if e.beginRefute() {
		return NoConflict, false
	}

	if e.nEmpty > 0 {
		w := 0
		for _, id := range e.empty {
			if e.clauses[id].active {
				e.empty[w] = id
				w++
			}
		}
		e.empty = e.empty[:w]
		e.conflicts++
		return e.empty[0], false
	}

	for _, l := range c {
		if !e.enqueue(l.Neg(), reasonAssumption) {
			return NoConflict, true
		}
	}

	w := 0
	conflict := NoConflict
	for i, id := range e.units {
		uc := &e.clauses[id]
		if !uc.active {
			continue
		}
		e.units[w] = id
		w++
		if !e.enqueue(uc.lits[0], id) {
			for _, rest := range e.units[i+1:] {
				e.units[w] = rest
				w++
			}
			conflict = id
			break
		}
	}
	e.units = e.units[:w]
	if conflict != NoConflict {
		e.conflicts++
		return conflict, false
	}

	return e.propagate()
}

func (e *Counting) propagate() (ID, bool) {
	for e.qhead < len(e.trail) {
		if e.poll() {
			return NoConflict, false
		}
		p := e.trail[e.qhead]
		e.qhead++
		falseLit := p.Neg()
		conflict := NoConflict
		// Even after a conflict is found, finish counting the whole
		// occurrence list so reset can roll counters back symmetrically.
		e.occTouches += int64(len(e.occurs[falseLit]))
		for _, id := range e.occurs[falseLit] {
			c := &e.clauses[id]
			c.nFalse++ // counters track all clauses, active or not
			if conflict != NoConflict || !c.active {
				continue
			}
			n := int32(len(c.lits))
			switch {
			case c.nFalse == n:
				conflict = id
			case c.nFalse == n-1:
				// Find the single non-false literal.
				var free cnf.Lit = cnf.LitUndef
				for _, l := range c.lits {
					if litValue(e.assign, l) != -1 {
						free = l
						break
					}
				}
				if free == cnf.LitUndef {
					conflict = id
				} else if litValue(e.assign, free) == 0 {
					if !e.enqueue(free, id) {
						conflict = id
					}
				}
			}
		}
		if conflict != NoConflict {
			e.conflicts++
			return conflict, false
		}
	}
	return NoConflict, false
}

// WalkConflict implements Propagator; see Engine.WalkConflict.
func (e *Counting) WalkConflict(conflict ID, visit func(ID)) {
	if conflict == NoConflict {
		return
	}
	defer func() {
		for _, v := range e.seenReset {
			e.seen[v] = false
		}
		e.seenReset = e.seenReset[:0]
	}()

	visit(conflict)
	stack := append([]cnf.Lit(nil), e.clauses[conflict].lits...)
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := l.Var()
		if e.seen[v] {
			continue
		}
		e.seen[v] = true
		e.seenReset = append(e.seenReset, v)
		r := e.reason[v]
		if r == reasonAssumption {
			continue
		}
		visit(r)
		for _, rl := range e.clauses[r].lits {
			if rl.Var() != v {
				stack = append(stack, rl)
			}
		}
	}
}

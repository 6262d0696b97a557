package bcp

import (
	"slices"

	"repro/internal/cnf"
)

// Engine is the two-watched-literal propagator. Three design choices make it
// fast on the verifier's access pattern (one Refute per checked clause, over
// a database that changes by one clause between checks):
//
//   - Persistent root trail. The fixpoint of the active database under unit
//     propagation alone — the "root level" — is computed lazily and kept
//     alive between Refute calls. Each Refute backtracks to the saved root
//     length, pushes only the refuted clause's assumption literals, and
//     propagates from there, instead of re-injecting every unit clause and
//     re-deriving the whole fixpoint per check. Add, Deactivate, Suspend
//     and Reactivate maintain the trail's validity: taking out a clause
//     that is the reason for a root literal truncates the trail at that
//     literal (every later entry is conservatively dropped) and schedules a
//     lazy re-propagation; mutations that can only extend the fixpoint
//     merely clear the fixed flag.
//
//   - Flat clause arena. Every clause lives in one contiguous []cnf.Lit as
//     [id, meta, lits...], where meta packs the literal count with the
//     clause's flags. A watch-list entry carries the clause's arena offset,
//     so visiting a clause touches one cache line for its header and first
//     literals instead of a separate header table and then the arena. Truth values are kept per literal, so testing a literal is
//     one load with no sign arithmetic.
//
//   - Blocking literals. A watch-list entry carries a copy of some literal
//     of its clause (initially the other watched literal); if the blocker is
//     true the clause is already satisfied and is skipped without touching
//     clause memory at all.
//
//   - Core-first propagation. Clauses passed to MarkCore watch through a
//     second set of lists that propagate runs to fixpoint before it looks at
//     any other clause, as DRAT-trim does, so conflicts prefer clauses the
//     verifier has already marked. An engine never marked has no second set
//     and propagates in plain watch-list order.
//
//   - Per-clause retention. A clause taken out with Deactivate is gone for
//     good: propagation drops its watch-list entries when it meets them,
//     as it does the unit and empty lists' entries. A clause taken out with
//     Suspend keeps all of them, so Reactivate is a flag flip. Dropping an
//     inactive entry never reorders the active ones, so the choice changes
//     the work done but not which conflict is found.
//
// Clauses of length >= 2 keep two watched positions (lits[0] and lits[1]);
// a clause is revisited only when one of its watched literals becomes false.
// Unit and empty clauses are tracked separately: units are (re)injected when
// the root fixpoint is rebuilt, and active empty clauses are counted so the
// common no-empty-clause case costs one integer compare per Refute.
type Engine struct {
	nVars int
	// arena holds every clause as [id, meta, lits...] in Add order (the two
	// header words are stored as Lit-typed integers; see metaInactive).
	// offs maps a clause ID to the arena offset of its id word.
	arena []cnf.Lit
	offs  []uint32
	// watches is indexed by literal: entries for clauses currently watching
	// it, each with a blocking literal checked before the clause is loaded.
	// core holds the entries of clauses marked by MarkCore, indexed the same
	// way; it stays nil until the first MarkCore.
	watches [][]watcher
	core    [][]watcher

	units  []ID // unit clauses, active or suspended (lazily compacted)
	empty  []ID // empty clauses, active or suspended (lazily compacted)
	taut   int  // count of tautologies, for stats only
	nUnits int  // active unit count (maintained by every mutation)
	nEmpty int  // active empty count (maintained by every mutation)

	val    []int8 // indexed by literal: +1 true, -1 false, 0 unassigned
	reason []ID
	varPos []int32 // trail index of each assigned variable
	trail  []cnf.Lit
	qhead  int

	// Root-trail state. trail[:rootLen] is the committed prefix of the root
	// fixpoint: every entry is implied by the active database alone (no
	// assumptions). When rootFixed, the prefix IS the fixpoint and
	// rootConflict caches its outcome; otherwise rootFix resumes propagation
	// at rootQhead (0 forces a full replay of the kept prefix, needed after
	// a truncation because a clause can become unit under any kept literal).
	rootLen      int
	rootQhead    int
	rootFixed    bool
	rootConflict ID

	// When a Refute assumption clashes with a root literal, the literal's
	// root reason clause is reported as the conflict and its reason is
	// temporarily overridden to reasonAssumption so WalkConflict treats the
	// clash variable as an assumption (visiting the conflict clause once,
	// like a falsified-clause conflict). savedVar/savedReason restore it on
	// the next backtrack. savedVar < 0 means no override is in place.
	savedVar    int
	savedReason ID

	litMark   []bool // per-literal scratch for the tautology pre-scan
	seen      []bool // per-var scratch for WalkConflict
	seenReset []cnf.Var
	walkStack []cnf.Lit // scratch stack reused across WalkConflict calls

	hintBuf hintScratch // ConflictHints scratch

	stopState

	propagations  int64
	refutations   int64
	conflicts     int64
	watcherVisits int64
}

// A clause's meta word: the literal count shifted above four flag bits.
const (
	metaInactive  = 1 << 0 // deactivated, suspended, or a tautology
	metaTaut      = 1 << 1 // tautologies can never be activated
	metaCore      = 1 << 2 // passed to MarkCore
	metaSuspended = 1 << 3 // inactive, but kept in its lists for Reactivate
	metaShift     = 4
	hdrWords      = 2 // arena words before a clause's literals: id, meta
)

// watcher is a watch-list entry: the arena offset of the watching clause
// plus a blocking literal. The blocker is always some literal of the clause,
// so blocker-true implies clause-satisfied even when the entry is stale.
type watcher struct {
	off     uint32
	blocker cnf.Lit
}

var _ Propagator = (*Engine)(nil)

// NewEngine returns a watched-literal engine over n variables. The variable
// range grows automatically when Add or Refute mention larger variables.
func NewEngine(n int) *Engine {
	e := &Engine{nVars: n, rootConflict: NoConflict, savedVar: -1}
	e.growTo(n)
	return e
}

// lits returns the arena slice of a clause.
func (e *Engine) lits(id ID) []cnf.Lit {
	off := e.offs[id]
	n := uint32(e.arena[off+1] >> metaShift)
	return e.arena[off+hdrWords : off+hdrWords+n]
}

// keep reports whether an inactive clause's list entries must stay: it
// was suspended, not deactivated.
func keep(meta cnf.Lit) bool { return meta&metaSuspended != 0 }

// Reserve sizes the clause store so that adding nClauses more clauses with
// nLits literals in total does not reallocate it.
func (e *Engine) Reserve(nClauses, nLits int) {
	e.arena = slices.Grow(e.arena, nLits+hdrWords*nClauses)
	e.offs = slices.Grow(e.offs, nClauses)
}

// Reactivate undoes a Suspend. It returns ErrNotReactivable for a clause
// taken out by Deactivate, whose list entries may already be gone, so a
// flag flip cannot bring it back. An active clause or a tautology is left
// as it is.
func (e *Engine) Reactivate(id ID) error {
	meta := &e.arena[e.offs[id]+1]
	if *meta&(metaInactive|metaTaut) != metaInactive {
		return nil // active, or a tautology
	}
	if !keep(*meta) {
		return ErrNotReactivable
	}
	e.backtrackToRoot()
	*meta &^= metaInactive | metaSuspended
	switch *meta >> metaShift {
	case 0:
		e.nEmpty++
	case 1:
		e.nUnits++
		// The unit extends the root fixpoint; the unit scan in rootFix will
		// pick it up, and propagation resumes from the current queue. A
		// cached root conflict survives any added constraint, and resuming
		// past it would lose it, so it is kept as is.
		if e.rootConflict == NoConflict {
			e.rootFixed = false
		}
	default:
		// If a watched literal is already false, its falsification event is
		// in the past: replay the whole kept trail so the clause is visited.
		// A true watch exempts the clause — it is satisfied at root, and any
		// truncation that could unassign the true watch forces a replay
		// itself.
		ls := e.lits(id)
		v0, v1 := e.val[ls[0]], e.val[ls[1]]
		if (v0 == -1 || v1 == -1) && v0 != 1 && v1 != 1 {
			e.rootFixed = false
			e.rootQhead = 0
		}
	}
	return nil
}

func (e *Engine) growTo(n int) {
	if n < e.nVars {
		n = e.nVars
	}
	if k := n - len(e.reason); k > 0 {
		e.val = append(e.val, make([]int8, 2*k)...)
		e.reason = append(e.reason, make([]ID, k)...)
		for i := n - k; i < n; i++ {
			e.reason[i] = reasonAssumption
		}
		e.varPos = append(e.varPos, make([]int32, k)...)
		e.seen = append(e.seen, make([]bool, k)...)
		e.watches = append(e.watches, make([][]watcher, 2*k)...)
		if e.core != nil {
			e.core = append(e.core, make([][]watcher, 2*k)...)
		}
		e.litMark = append(e.litMark, make([]bool, 2*k)...)
	}
	e.nVars = n
}

// NumClauses returns how many clauses were added.
func (e *Engine) NumClauses() int { return len(e.offs) }

// Propagations returns the cumulative number of implied assignments.
func (e *Engine) Propagations() int64 { return e.propagations }

// Stats returns the cumulative work counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Propagations:  e.propagations,
		Refutations:   e.refutations,
		Conflicts:     e.conflicts,
		WatcherVisits: e.watcherVisits,
	}
}

// RootTrailLen reports how many literals the persistent root trail currently
// holds. Exposed for tests and diagnostics.
func (e *Engine) RootTrailLen() int { return e.rootLen }

// Add inserts a clause and returns its ID. The clause is copied into the
// arena and normalized there as cnf.Clause.Normalize would: sorted, with
// duplicate literals dropped and complementary pairs marking a tautology.
func (e *Engine) Add(c cnf.Clause) ID {
	e.backtrackToRoot()
	id := ID(len(e.offs))
	off := uint32(len(e.arena))
	e.arena = append(e.arena, cnf.Lit(id), 0)
	e.arena = append(e.arena, c...)
	ls := e.arena[off+hdrWords:]
	slices.Sort(ls)
	n, taut := 0, false
	for i, l := range ls {
		if i > 0 && l == ls[n-1] {
			continue
		}
		if n > 0 && l == ls[n-1].Neg() {
			taut = true
		}
		ls[n] = l
		n++
	}
	ls = ls[:n]
	e.arena = e.arena[:off+hdrWords+uint32(n)]
	meta := cnf.Lit(n << metaShift)
	if taut {
		meta |= metaInactive | metaTaut
	}
	e.arena[off+1] = meta
	e.offs = append(e.offs, off)
	if n > 0 {
		// Sorted, so the last literal has the largest variable.
		if mv := ls[n-1].Var(); int(mv) >= e.nVars {
			e.growTo(int(mv) + 1)
		}
	}
	if taut {
		e.taut++
		return id
	}
	switch n {
	case 0:
		e.empty = append(e.empty, id)
		e.nEmpty++
	case 1:
		e.units = append(e.units, id)
		e.nUnits++
		// May extend the root fixpoint; injected on the next rootFix. A
		// cached root conflict stays valid (see Reactivate).
		if e.rootConflict == NoConflict {
			e.rootFixed = false
		}
	default:
		// Prefer two non-false watches under the current root assignment so
		// the watch invariant (a watched literal is false only if its
		// falsification event is at or after the propagation queue head)
		// holds without replaying the trail. Fewer than two exist only when
		// the clause is already unit or falsified at root — then force a
		// full replay, which revisits every falsification event.
		nw := 0
		for k := 0; k < len(ls) && nw < 2; k++ {
			if e.val[ls[k]] != -1 {
				ls[nw], ls[k] = ls[k], ls[nw]
				nw++
			}
		}
		e.watches[ls[0]] = append(e.watches[ls[0]], watcher{off, ls[1]})
		e.watches[ls[1]] = append(e.watches[ls[1]], watcher{off, ls[0]})
		if nw < 2 {
			e.rootFixed = false
			e.rootQhead = 0
		}
	}
	return id
}

// Reset empties the engine in place: no clauses, no assignment, no root
// trail, empty watch, unit and empty lists, no core lists and zeroed
// counters. Only capacity survives, so Adding clauses again reaches the
// state a new engine given the same Adds holds while allocating nothing
// until it outgrows what it held. The variable range, the stop hook and the
// trace lane are kept.
func (e *Engine) Reset() {
	e.backtrackToRoot()
	e.shrinkTrail(0)
	clear(e.varPos)
	e.arena, e.offs = e.arena[:0], e.offs[:0]
	for l := range e.watches {
		e.watches[l] = e.watches[l][:0]
	}
	e.core = nil
	e.units, e.empty = e.units[:0], e.empty[:0]
	e.taut, e.nUnits, e.nEmpty = 0, 0, 0
	e.qhead, e.rootLen, e.rootQhead = 0, 0, 0
	e.rootFixed, e.rootConflict = false, NoConflict
	e.savedReason = 0
	e.stopErr, e.countdown = nil, 0
	e.propagations, e.refutations, e.conflicts, e.watcherVisits = 0, 0, 0, 0
}

// MarkCore moves clause id's two watchers into the core watch lists, which
// propagate runs to fixpoint before the others. Marking a unit, empty or
// tautological clause, or one already marked, changes no list. The first
// call allocates the core lists.
func (e *Engine) MarkCore(id ID) {
	off := e.offs[id]
	meta := &e.arena[off+1]
	if *meta&(metaCore|metaTaut) != 0 {
		return
	}
	*meta |= metaCore
	if *meta>>metaShift < 2 {
		return
	}
	if e.core == nil {
		e.core = make([][]watcher, len(e.watches))
	}
	// A clause watches exactly its first two literals. A deactivated
	// clause may already have lost either watcher to lazy cleanup.
	for _, l := range e.arena[off+hdrWords : off+hdrWords+2] {
		ws := e.watches[l]
		for k, w := range ws {
			if w.off == off {
				e.watches[l] = append(ws[:k], ws[k+1:]...)
				e.core[l] = append(e.core[l], w)
				break
			}
		}
	}
}

// Deactivate removes the clause from future propagations for good:
// propagation drops its list entries as it meets them. Deactivating an
// inactive clause leaves it as it is.
func (e *Engine) Deactivate(id ID) { e.takeOut(id, metaInactive) }

// Suspend removes the clause from future propagations but keeps it in its
// watch, unit and empty lists, so Reactivate can bring it back. Suspending
// an inactive clause leaves it as it is.
func (e *Engine) Suspend(id ID) { e.takeOut(id, metaInactive|metaSuspended) }

// takeOut sets the flags of an active clause. If the clause is the reason
// for a root-trail literal, the trail is truncated at that literal — every
// later entry is dropped and re-derived lazily, since its own justification
// may depend on the invalidated one.
func (e *Engine) takeOut(id ID, flags cnf.Lit) {
	off := e.offs[id]
	meta := &e.arena[off+1]
	if *meta&metaInactive != 0 {
		return
	}
	e.backtrackToRoot()
	*meta |= flags
	switch *meta >> metaShift {
	case 0:
		e.nEmpty--
		return
	case 1:
		e.nUnits--
	}
	// Root propagation keeps each implied literal at position 0 of its
	// reason clause, so one load decides whether id justifies a trail entry.
	l0 := e.arena[off+hdrWords]
	if e.val[l0] == 1 && e.reason[l0.Var()] == id {
		pos := int(e.varPos[l0.Var()])
		e.shrinkTrail(pos)
		e.rootLen = pos
		e.rootQhead = 0 // a clause can be unit under any kept literal: full replay
		e.rootFixed = false
		e.rootConflict = NoConflict
		return
	}
	if id == e.rootConflict {
		// The cached root conflict is gone; re-derive the fixpoint outcome.
		e.rootConflict = NoConflict
		e.rootQhead = 0
		e.rootFixed = false
	}
	// Any other deactivation only removes constraints: the remaining trail
	// stays justified and a cached conflict on a different clause stays
	// falsified. Watch lists are cleaned lazily during propagation.
}

// shrinkTrail unassigns every trail literal at index >= to.
func (e *Engine) shrinkTrail(to int) {
	for i := len(e.trail) - 1; i >= to; i-- {
		l := e.trail[i]
		e.val[l] = 0
		e.val[l.Neg()] = 0
		e.reason[l.Var()] = reasonAssumption
	}
	e.trail = e.trail[:to]
	if e.qhead > to {
		e.qhead = to
	}
}

// backtrackToRoot removes the previous Refute's assumptions and their
// consequences, restoring the committed root prefix (and any reason
// temporarily overridden for conflict reporting).
func (e *Engine) backtrackToRoot() {
	if e.savedVar >= 0 {
		e.reason[e.savedVar] = e.savedReason
		e.savedVar = -1
	}
	if len(e.trail) > e.rootLen {
		e.shrinkTrail(e.rootLen)
	}
}

// enqueue makes l true with the given reason. It returns false when l is
// already false (a conflict the caller must handle).
func (e *Engine) enqueue(l cnf.Lit, why ID) bool {
	switch e.val[l] {
	case 1:
		return true // already true
	case -1:
		return false // conflict
	}
	e.val[l] = 1
	e.val[l.Neg()] = -1
	v := l.Var()
	e.reason[v] = why
	e.varPos[v] = int32(len(e.trail))
	e.trail = append(e.trail, l)
	if why != reasonAssumption {
		e.propagations++
	}
	return true
}

// rootFix brings the root trail to the unit-propagation fixpoint of the
// active database and returns the cached conflict (or NoConflict). On a
// cooperative abort the partial progress is kept — every enqueued literal
// is justified — and the root stays unfixed; callers must check StopErr.
func (e *Engine) rootFix() ID {
	if e.rootFixed {
		return e.rootConflict
	}
	e.qhead = e.rootQhead

	// Inject active unit clauses, compacting deactivated ones out of the
	// list as we go.
	w := 0
	conflict := NoConflict
	for i, id := range e.units {
		off := e.offs[id]
		if meta := e.arena[off+1]; meta&metaInactive != 0 {
			if keep(meta) {
				e.units[w] = id
				w++
			}
			continue
		}
		e.units[w] = id
		w++
		if !e.enqueue(e.arena[off+hdrWords], id) {
			// Preserve the not-yet-scanned suffix before bailing out.
			for _, rest := range e.units[i+1:] {
				e.units[w] = rest
				w++
			}
			conflict = id
			break
		}
	}
	e.units = e.units[:w]

	if conflict == NoConflict {
		conflict = e.propagate()
		if e.stopErr != nil {
			e.rootLen = len(e.trail)
			e.rootQhead = e.qhead
			return NoConflict
		}
	}
	e.rootLen = len(e.trail)
	e.rootQhead = e.qhead
	e.rootConflict = conflict
	e.rootFixed = true
	return conflict
}

// Refute implements Propagator.
func (e *Engine) Refute(c cnf.Clause) (ID, bool) {
	p0, v0 := e.propagations, e.watcherVisits
	conflict, selfContra := e.refute(c)
	if conflict != NoConflict {
		e.conflicts++
	}
	if t := e.trace; t != nil {
		t.CounterPair("bcp.propagations", e.propagations-p0,
			"bcp.watcher_visits", e.watcherVisits-v0)
	}
	return conflict, selfContra
}

func (e *Engine) refute(c cnf.Clause) (ID, bool) {
	if mv := c.MaxVar(); int(mv) >= e.nVars {
		e.growTo(int(mv) + 1)
	}
	e.backtrackToRoot()
	e.refutations++
	if e.beginRefute() {
		return NoConflict, false
	}

	// An active empty clause conflicts immediately; nEmpty makes the common
	// case one compare. The first active one in Add order is reported.
	if e.nEmpty > 0 {
		w, first := 0, NoConflict
		for _, id := range e.empty {
			meta := e.arena[e.offs[id]+1]
			if meta&metaInactive == 0 && first == NoConflict {
				first = id
			}
			if meta&metaInactive == 0 || keep(meta) {
				e.empty[w] = id
				w++
			}
		}
		e.empty = e.empty[:w]
		return first, false
	}

	// Tautology pre-scan: c cannot be falsified iff it contains a
	// complementary pair. Checked against scratch marks rather than the
	// trail, because root literals are no longer assumption-assigned.
	selfContra := false
	for _, l := range c {
		if e.litMark[l.Neg()] {
			selfContra = true
			break
		}
		e.litMark[l] = true
	}
	for _, l := range c {
		e.litMark[l] = false
	}
	if selfContra {
		return NoConflict, true
	}

	// Root fixpoint: cached across Refute calls; a database that is already
	// refuted by unit propagation alone conflicts regardless of assumptions.
	if conflict := e.rootFix(); conflict != NoConflict || e.stopErr != nil {
		return conflict, false
	}

	// Assumptions: falsify every literal of c. A clash means the literal is
	// already true at root (complementary pairs were excluded above, and
	// every root literal has a clause reason); that reason clause is the
	// conflict, with the clash variable reported as assumption-assigned so
	// conflict analysis walks its remaining literals' root reasons.
	for _, l := range c {
		if !e.enqueue(l.Neg(), reasonAssumption) {
			v := l.Var()
			r := e.reason[v]
			e.savedVar = int(v)
			e.savedReason = r
			e.reason[v] = reasonAssumption
			return r, false
		}
	}

	conflict := e.propagate()
	if e.stopErr != nil {
		return NoConflict, false
	}
	return conflict, false
}

// propagate runs watched-literal propagation until fixpoint or conflict.
//
// The visiting order is part of the verifier's output contract: which
// conflict is found decides the marked clauses, hence the core, the trimmed
// proof and the LRAT hints. So watch lists are scanned front to back, the
// replacement watch is the first non-false literal from position 2 on, and
// an implied literal always sits at lits[0] of its reason clause.
//
// Once MarkCore has run, the trail has two heads, as in DRAT-trim: the core
// head runs the core lists to fixpoint before the other head takes each
// literal, and again right after each implication the other head's scan
// makes, which then resumes at the same list position. The trail is at
// fixpoint only when both heads reach its end.
func (e *Engine) propagate() ID {
	if e.core == nil {
		return e.scan(e.watches, &e.qhead, nil)
	}
	cq := e.qhead // the core head, never behind e.qhead
	return e.scan(e.watches, &e.qhead, &cq)
}

// scan advances *head along the trail, visiting for each literal its list
// in lists, until fixpoint or conflict. coreHead is nil for the head that
// leads, which alone polls the stop hook (once per literal it takes). For
// the non-core head of a marked engine it is the core head, which scan
// runs to fixpoint through a nested scan of the core lists before taking
// each literal and after each implication.
func (e *Engine) scan(lists [][]watcher, head, coreHead *int) ID {
	// The arena and value slices do not change while propagating (only Add
	// and Refute grow them), so they are read once.
	arena, val := e.arena, e.val
	for {
		if coreHead != nil {
			if c := e.scan(e.core, coreHead, nil); c != NoConflict || e.stopErr != nil {
				return c
			}
		}
		if *head >= len(e.trail) {
			return NoConflict
		}
		if coreHead == nil && e.poll() {
			return NoConflict
		}
		falseLit := e.trail[*head].Neg() // just became false
		*head++
		ws := lists[falseLit]
		// Kept entries are compacted to the front of ws in place: j never
		// passes i.
		j := 0
		e.watcherVisits += int64(len(ws))
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Blocker true => clause satisfied: skip without loading it.
			if val[w.blocker] == 1 {
				ws[j] = w
				j++
				continue
			}
			meta := arena[w.off+1]
			if meta&metaInactive != 0 {
				if keep(meta) {
					ws[j] = w // suspended: may be reactivated later
					j++
				}
				continue
			}
			start := w.off + hdrWords
			lits := arena[start : start+uint32(meta>>metaShift)]
			// Ensure the false watch is lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			// If the other watch is true, the clause is satisfied.
			if first != w.blocker && val[first] == 1 {
				ws[j] = watcher{w.off, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if l := lits[k]; val[l] != -1 {
					lits[1], lits[k] = l, lits[1]
					lists[l] = append(lists[l], watcher{w.off, first})
					found = true
					break
				}
			}
			if found {
				continue // clause moved to another watch list
			}
			// Clause is unit on first (or falsified).
			ws[j] = watcher{w.off, first}
			j++
			id := ID(arena[w.off])
			if !e.enqueue(first, id) {
				// Conflict: keep the remaining watchers in place.
				j += copy(ws[j:], ws[i+1:])
				lists[falseLit] = ws[:j]
				return id
			}
			if coreHead != nil && i+1 < len(ws) {
				if c := e.scan(e.core, coreHead, nil); c != NoConflict || e.stopErr != nil {
					// Keep the unvisited watchers, and rescan this literal's
					// list whole if propagation resumes from here.
					j += copy(ws[j:], ws[i+1:])
					lists[falseLit] = ws[:j]
					*head--
					return c
				}
			}
		}
		lists[falseLit] = ws[:j]
	}
}

// WalkConflict implements Propagator. It marks, transitively, every clause
// responsible for the conflict, mirroring the paper's Conflict_analysis:
// start from the falsified clause; for each of its (false) literals, if the
// variable was propagated, visit its reason clause and recurse; assumption
// variables (literals of the refuted clause C) contribute nothing.
func (e *Engine) WalkConflict(conflict ID, visit func(ID)) {
	if conflict == NoConflict {
		return
	}
	defer func() {
		for _, v := range e.seenReset {
			e.seen[v] = false
		}
		e.seenReset = e.seenReset[:0]
	}()

	// Each clause implies at most one variable and an implying clause can
	// never itself be falsified (its implied literal stays true), so with
	// per-variable deduplication every clause is visited at most once.
	visit(conflict)
	stack := append(e.walkStack[:0], e.lits(conflict)...)
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
		for _, rl := range e.lits(r) {
			if rl.Var() != v {
				stack = append(stack, rl)
			}
		}
	}
	e.walkStack = stack[:0]
}

// Assignment returns the current value of a variable after the last Refute:
// +1 true, -1 false, 0 unassigned. Exposed for tests and diagnostics.
func (e *Engine) Assignment(v cnf.Var) int8 {
	if int(v) >= e.nVars {
		return 0
	}
	return e.val[cnf.PosLit(v)]
}

// ActiveUnits reports how many unit clauses are currently active.
func (e *Engine) ActiveUnits() int { return e.nUnits }

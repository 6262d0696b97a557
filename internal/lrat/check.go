package lrat

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/sched"
)

// The hint-driven checker. Where RUP verification falsifies a clause and
// *searches* for a conflict with watch lists and a trail, the hinted check
// only replays the named antecedents: under the negated clause, each hint in
// order must be unit (its one unassigned literal is then assigned) and the
// final hint falsified. No watch lists, no trail search, no propagation
// queue — each step touches exactly the clauses its hints name.
//
// Trust argument: if the replay succeeds, the assignment ¬C extended by the
// forced unit literals falsifies the last hint clause, i.e. unit propagation
// restricted to the hint clauses alone derives a conflict from ¬C. Unit
// propagation over MORE clauses derives at least as much, so C is a reverse-
// unit-propagation consequence of the live clause set — acceptance by this
// checker implies acceptance by the RUP checker. The converse does not hold
// (a wrong, reordered, dropped or dangling hint makes the replay fail even
// though the clause may still be RUP-derivable); the checker is deliberately
// strict, and the recorder's trail-ordered emission satisfies it by
// construction.
//
// Because a step's replay depends only on the immutable id→clause table and
// its own hint list, steps verify independently: the parallel mode schedules
// them across workers after one cheap sequential structural pass (id
// resolution + liveness intervals), with no shared propagation state at all.

// Options configures Check.
type Options struct {
	// Workers > 1 together with Strategy == sched.StrategyDAG enables the
	// parallel mode, which schedules steps work-stealing style over the
	// hint dependency DAG (see dag.go), so wall-clock tracks the proof's
	// critical path. Verdicts are identical to the sequential mode's. Any
	// other setting checks the steps in order on the calling goroutine.
	Workers  int
	Strategy sched.Strategy
	// Ctx, when non-nil, cancels the run; Check then returns ctx.Err()
	// alongside a partial Result with Incomplete set.
	Ctx context.Context
	// Obs, when non-nil, receives counters ("lrat.steps_checked",
	// "lrat.hints_scanned"), a "lrat-check" span and — in DAG mode — the
	// scheduler's sched.* counters and per-worker trace lanes.
	Obs *obs.Registry
}

// Result reports the outcome of a hinted check.
type Result struct {
	// OK means every step replayed and an empty clause was derived.
	OK bool
	// FailedStep is the index into Proof.Steps of the first failing step,
	// or -1 (structural problems before any replay also land here when they
	// are attributable to a step).
	FailedStep int
	// Reason is a human-readable rejection cause when !OK.
	Reason string
	// Additions and Deletions count the proof's steps by kind.
	Additions, Deletions int
	// HintsScanned is the total number of hint clauses replayed.
	HintsScanned int64
	// Refuted reports whether an empty clause was derived.
	Refuted bool
	// Incomplete is true when the run stopped (context) before a verdict;
	// StoppedAt is the step index it reached.
	Incomplete bool
	StoppedAt  int
}

// slotRef locates one clause in the checker's dense table.
type slotRef struct {
	addAt int32 // step index that added it; -1 for formula clauses
	delAt int32 // step index that deleted it; math.MaxInt32 while live
}

// checker is the immutable state shared by all workers after the structural
// pass.
type checker struct {
	clauses [][]cnf.Lit // dense slot -> literals
	refs    []slotRef
	// hintSlots is the flat arena of resolved hint slot indices; step k's
	// hints live at hintSlots[hintOff[k]:hintOff[k+1]] (deletions: empty).
	hintSlots []int32
	hintOff   []int32
	// nVars is one past the largest variable any formula or proof clause
	// mentions.
	nVars int
}

const ctxPollEvery = 1024

// Check validates the proof against the formula. Structural problems
// (dangling or non-increasing IDs, deleted antecedents) and failed replays
// both reject via Result; the error return is reserved for cancellation.
func Check(f *cnf.Formula, p *Proof, opt Options) (*Result, error) {
	ctx := opt.Ctx
	span := opt.Obs.StartSpan("lrat-check")
	defer span.End()

	res := &Result{FailedStep: -1}
	for i := range p.Steps {
		if p.Steps[i].Del {
			res.Deletions++
		} else {
			res.Additions++
		}
	}

	ck, rej := buildChecker(f, p)
	if rej != nil {
		res.FailedStep = rej.step
		res.Reason = rej.reason
		return res, nil
	}

	if workers := min(opt.Workers, len(p.Steps)); workers > 1 && opt.Strategy == sched.StrategyDAG {
		return checkDAG(p, ck, workers, opt, res)
	}

	st := newStepChecker(ck)
	stoppedAt, refuted := -1, false
	for k := range p.Steps {
		if ctx != nil && k%ctxPollEvery == 0 && ctx.Err() != nil {
			stoppedAt = k
			break
		}
		s := &p.Steps[k]
		if s.Del {
			continue
		}
		n, why := st.check(s, ck.hintSlots[ck.hintOff[k]:ck.hintOff[k+1]])
		res.HintsScanned += n
		if why != "" {
			res.FailedStep, res.Reason = k, why
			break
		}
		if len(s.C) == 0 {
			refuted = true
		}
	}

	opt.Obs.Counter("lrat.hints_scanned").Add(res.HintsScanned)
	opt.Obs.Counter("lrat.steps_checked").Add(int64(res.Additions))
	switch {
	case stoppedAt >= 0:
		res.Incomplete = true
		res.StoppedAt = stoppedAt
		return res, ctx.Err()
	case res.FailedStep >= 0:
		return res, nil
	case !refuted:
		res.Reason = "no empty clause derived"
		return res, nil
	}
	res.Refuted = true
	res.OK = true
	return res, nil
}

// idTable resolves clause IDs to slots. Formula clauses are 1..nf, slots
// 0..nf-1, and the recorder numbers additions densely (engine clause ID +
// 1), so the table is a slice indexed by id - 1, holding -1 where no clause
// has the ID. Foreign proofs may skip IDs: when the largest addition ID
// lies more than 4·additions + 1024 past nf, the slice covers the formula
// only and additions go into a map, so memory stays bounded by the proof's
// length and not by its largest ID.
type idTable struct {
	slots []int32
	more  map[int64]int32 // additions past slots
}

func newIDTable(nf int, maxID int64, adds int) *idTable {
	t := &idTable{}
	n := maxID
	if maxID-int64(nf) > 4*int64(adds)+1024 {
		n = int64(nf)
		t.more = make(map[int64]int32, adds)
	}
	t.slots = make([]int32, n)
	for i := range t.slots {
		t.slots[i] = -1
		if i < nf {
			t.slots[i] = int32(i)
		}
	}
	return t
}

// put records the slot of the addition with the given ID, which is above
// nf and at most the largest addition ID newIDTable was given.
func (t *idTable) put(id int64, slot int32) {
	if i := id - 1; i < int64(len(t.slots)) {
		t.slots[i] = slot
		return
	}
	t.more[id] = slot
}

// get returns the slot of the clause with the given ID, if it has one.
func (t *idTable) get(id int64) (int32, bool) {
	if i := uint64(id - 1); i < uint64(len(t.slots)) {
		s := t.slots[i]
		return s, s >= 0
	}
	s, ok := t.more[id]
	return s, ok
}

// rejection attributes a structural problem to a step.
type rejection struct {
	step   int
	reason string
}

// buildChecker runs the sequential structural pass: id→slot resolution,
// liveness intervals, per-step hint resolution into a flat arena. It does no
// replay work, so it is cheap relative to the per-step checks it unlocks.
//
// The replay arrays are sized by the largest variable the formula and proof
// clauses mention, never by the formula header: a header may undercount its
// variables, and an overcounting one (a 37-byte upload can claim 10^8) would
// otherwise make every worker allocate for variables no clause names.
func buildChecker(f *cnf.Formula, p *Proof) (*checker, *rejection) {
	nf := f.NumClauses()
	adds, hints := 0, 0
	maxID := int64(nf) // the largest ID a clause may have
	for k := range p.Steps {
		if s := &p.Steps[k]; !s.Del {
			adds++
			hints += len(s.Hints)
			maxID = max(maxID, s.ID)
		}
	}
	ck := &checker{
		clauses:   make([][]cnf.Lit, nf, nf+adds),
		refs:      make([]slotRef, nf, nf+adds),
		hintSlots: make([]int32, 0, hints),
		hintOff:   make([]int32, 1, len(p.Steps)+1),
	}
	for i, c := range f.Clauses {
		ck.clauses[i] = c
		ck.refs[i] = slotRef{addAt: -1, delAt: math.MaxInt32}
		if mv := c.MaxVar(); int(mv) >= ck.nVars {
			ck.nVars = int(mv) + 1
		}
	}
	ids := newIDTable(nf, maxID, adds)
	lastID := int64(nf)
	for k := range p.Steps {
		s := &p.Steps[k]
		if s.Del {
			for _, id := range s.Deleted {
				slot, ok := ids.get(id)
				if !ok {
					return nil, &rejection{k, fmt.Sprintf("deletion of unknown id %d", id)}
				}
				if ck.refs[slot].delAt != math.MaxInt32 {
					return nil, &rejection{k, fmt.Sprintf("double deletion of id %d", id)}
				}
				ck.refs[slot].delAt = int32(k)
			}
			ck.hintOff = append(ck.hintOff, int32(len(ck.hintSlots)))
			continue
		}
		if s.ID <= lastID {
			return nil, &rejection{k, fmt.Sprintf("id %d not above previous id %d", s.ID, lastID)}
		}
		lastID = s.ID
		for _, h := range s.Hints {
			if h < 0 {
				return nil, &rejection{k, fmt.Sprintf("RAT hint %d unsupported", h)}
			}
			slot, ok := ids.get(h)
			if !ok {
				return nil, &rejection{k, fmt.Sprintf("dangling hint id %d", h)}
			}
			r := ck.refs[slot]
			if r.addAt >= int32(k) {
				return nil, &rejection{k, fmt.Sprintf("hint id %d not yet derived", h)}
			}
			if r.delAt <= int32(k) {
				return nil, &rejection{k, fmt.Sprintf("hint id %d already deleted", h)}
			}
			ck.hintSlots = append(ck.hintSlots, slot)
		}
		slot := int32(len(ck.clauses))
		ck.clauses = append(ck.clauses, s.C)
		ck.refs = append(ck.refs, slotRef{addAt: int32(k), delAt: math.MaxInt32})
		ids.put(s.ID, slot)
		ck.hintOff = append(ck.hintOff, int32(len(ck.hintSlots)))
		if mv := s.C.MaxVar(); int(mv) >= ck.nVars {
			ck.nVars = int(mv) + 1
		}
	}
	return ck, nil
}

// stepChecker is one worker's mutable replay state: a value per literal and
// the undo list of assumed or forced literals. val[l] is 0 while l's variable
// is unassigned, +1 when l is true and -1 when l is false; set keeps the two
// literals of a variable complementary, so a read is one load with no sign
// arithmetic.
type stepChecker struct {
	ck   *checker
	val  []int8
	undo []cnf.Lit
}

func newStepChecker(ck *checker) *stepChecker {
	return &stepChecker{ck: ck, val: make([]int8, 2*ck.nVars)}
}

func (st *stepChecker) set(l cnf.Lit) {
	st.val[l] = 1
	st.val[l^1] = -1
	st.undo = append(st.undo, l)
}

func (st *stepChecker) reset() {
	for _, l := range st.undo {
		st.val[l] = 0
		st.val[l^1] = 0
	}
	st.undo = st.undo[:0]
}

// check replays one addition step and clears the assignment it made. It
// returns the number of hint clauses scanned and a non-empty reason on
// failure.
func (st *stepChecker) check(s *Step, hints []int32) (int64, string) {
	n, why := st.replay(s, hints)
	st.reset()
	return n, why
}

// replay is check without the cleanup: it leaves its assignment in place.
func (st *stepChecker) replay(s *Step, hints []int32) (int64, string) {
	// Assume the negation of the derived clause. A complementary pair means
	// the clause is a tautology — trivially implied, no hints needed.
	for _, l := range s.C {
		switch st.val[l] {
		case 1:
			return 0, "" // tautology
		case 0:
			st.set(l.Neg())
		}
	}
	if len(hints) == 0 {
		return 0, "no hints"
	}
	for i, slot := range hints {
		cl := st.ck.clauses[slot]
		var unit cnf.Lit = cnf.LitUndef
		unassigned := 0
		for _, l := range cl {
			switch st.val[l] {
			case 1:
				return int64(i + 1), fmt.Sprintf("hint %d (clause %s) satisfied, not unit", i, fmtClause(cl))
			case 0:
				// A repeated literal is still one candidate unit.
				if l != unit {
					unassigned++
					unit = l
				}
			}
		}
		last := i == len(hints)-1
		switch {
		case unassigned == 0:
			if !last {
				return int64(i + 1), fmt.Sprintf("hint %d conflicts before the final hint", i)
			}
			return int64(len(hints)), "" // falsified final hint: step derived
		case unassigned == 1:
			if last {
				return int64(len(hints)), fmt.Sprintf("final hint unit on %d, not conflicting", unit.Dimacs())
			}
			st.set(unit)
		default:
			return int64(i + 1), fmt.Sprintf("hint %d has %d unassigned literals, not unit", i, unassigned)
		}
	}
	return int64(len(hints)), "unreachable"
}

func fmtClause(ls []cnf.Lit) string {
	ds := make([]int, len(ls))
	for i, l := range ls {
		ds[i] = l.Dimacs()
	}
	sort.Ints(ds)
	return fmt.Sprint(ds)
}

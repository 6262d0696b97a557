// Package drat implements deletion-aware clausal proofs (DRUP format) —
// the direct descendant of the paper's conflict-clause proofs. A DRUP
// proof interleaves clause additions (each checkable by reverse unit
// propagation, exactly the paper's check) with deletion lines ("d ...")
// recording clauses the solver dropped from its database, which lets the
// checker's clause set track the solver's instead of growing monotonically.
//
// The paper's plain trace is the special case with no deletion lines; the
// forward checker below degenerates to Proof_verification1 run forwards.
//
// VerifyBackward is a format front end, not a second checker: it resolves
// deletion lines to clause slots and hands the additions, with that
// deletion schedule, to core.Verify — the same backward marking loop that
// checks conflict-clause traces.
package drat

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bcp"
	"repro/internal/cnf"
	"repro/internal/proof"
)

// Step is one proof line: an addition (Del=false) or deletion (Del=true).
type Step struct {
	Del bool
	C   cnf.Clause
}

// Proof is a DRUP proof: a chronological sequence of additions and
// deletions.
type Proof struct {
	Steps []Step
}

// Add appends an addition step.
func (p *Proof) Add(c cnf.Clause) { p.Steps = append(p.Steps, Step{C: c}) }

// Delete appends a deletion step.
func (p *Proof) Delete(c cnf.Clause) { p.Steps = append(p.Steps, Step{Del: true, C: c}) }

// Len returns the number of steps.
func (p *Proof) Len() int { return len(p.Steps) }

// Additions counts addition steps.
func (p *Proof) Additions() int {
	n := 0
	for _, s := range p.Steps {
		if !s.Del {
			n++
		}
	}
	return n
}

// Deletions counts deletion steps.
func (p *Proof) Deletions() int { return len(p.Steps) - p.Additions() }

// FromTrace lifts a plain conflict-clause trace into a deletion-free DRUP
// proof.
func FromTrace(t *proof.Trace) *Proof {
	p := &Proof{Steps: make([]Step, 0, t.Len())}
	for _, c := range t.Clauses {
		p.Add(c.Clone())
	}
	return p
}

// Write streams the proof in DRUP text format ("d" prefix for deletions).
func Write(w io.Writer, p *Proof) error {
	bw := bufio.NewWriter(w)
	for _, s := range p.Steps {
		if s.Del {
			if _, err := bw.WriteString("d "); err != nil {
				return err
			}
		}
		for _, l := range s.C {
			if _, err := bw.WriteString(strconv.Itoa(l.Dimacs())); err != nil {
				return err
			}
			if err := bw.WriteByte(' '); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("0\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses DRUP text under proof.DefaultLimits. Each line is one step:
// a line whose first field starts with 'c' is a comment, a first field "d"
// starts a deletion, and the step's clause runs to the first 0 on its line;
// whatever follows that 0 is ignored. Lines may be of any length. Syntax
// errors wrap proof.ErrMalformed and exceeded limits proof.ErrLimit, the
// same classes the trace readers report.
func Read(r io.Reader) (*Proof, error) { return readLimited(r, proof.DefaultLimits()) }

// readLimited is Read under explicit limits, every field of which must be
// set. The variable bound also keeps literals inside the int32 encoding.
func readLimited(r io.Reader, lim proof.Limits) (*Proof, error) {
	t := cnf.NewTokenizer(r, lim.MaxBytes, &proof.LimitError{What: "bytes", Limit: lim.MaxBytes})
	p := &Proof{}
	var lits cnf.Slab[cnf.Lit]
	// Every step ends its line, so each field read here begins one.
	for tok := t.Next(); tok != nil; tok = t.Next() {
		if tok[0] == 'c' {
			t.SkipLine()
			continue
		}
		lineNo := t.Line()
		del := string(tok) == "d"
		if del {
			tok = t.NextInLine()
		}
		terminated := false
		for ; tok != nil; tok = t.NextInLine() {
			d, ok := cnf.ParseInt(tok)
			if !ok {
				return nil, fmt.Errorf("%w: drat line %d: bad token %q", proof.ErrMalformed, lineNo, tok)
			}
			if d == 0 {
				terminated = true
				break
			}
			if d > int64(lim.MaxVar) || d < -int64(lim.MaxVar) {
				return nil, &proof.LimitError{What: "variable", Limit: int64(lim.MaxVar)}
			}
			if lits.Len() >= lim.MaxClauseLen {
				return nil, &proof.LimitError{What: "clause length", Limit: int64(lim.MaxClauseLen)}
			}
			lits.Append(cnf.FromDimacs(int(d)))
		}
		if !terminated {
			return nil, fmt.Errorf("%w: drat line %d: clause not terminated by 0", proof.ErrMalformed, lineNo)
		}
		t.SkipLine()
		if len(p.Steps) >= lim.MaxClauses {
			return nil, &proof.LimitError{What: "clauses", Limit: int64(lim.MaxClauses)}
		}
		p.Steps = append(p.Steps, Step{Del: del, C: lits.Cut()})
	}
	if err := t.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// clauseKey builds a canonical map key for deletion matching.
func clauseKey(c cnf.Clause) string {
	norm, _ := c.Normalize()
	ints := make([]int, len(norm))
	for i, l := range norm {
		ints[i] = l.Dimacs()
	}
	sort.Ints(ints)
	var b strings.Builder
	for _, d := range ints {
		b.WriteString(strconv.Itoa(d))
		b.WriteByte(' ')
	}
	return b.String()
}

// Result reports a DRUP/DRAT verification outcome.
type Result struct {
	OK           bool
	FailedStep   int // index of the offending step, -1 when OK
	Reason       string
	Additions    int
	Deletions    int
	Tautologies  int
	RATChecks    int  // additions accepted by the RAT fallback rather than RUP
	Refuted      bool // an empty clause (or final pair) was established
	Propagations int64

	// Incomplete is true when a backward run stopped before reaching a
	// verdict (core.Options Ctx or Budget, or a failed checkpoint write);
	// the counters above then describe the work done so far and OK is
	// meaningless. StoppedAt is the proof step of the addition the backward
	// loop had reached, or -1.
	Incomplete bool
	StoppedAt  int
}

// liveKeys maps each live clause's canonical key to its IDs, newest last,
// so a deletion line can be resolved by content. It is all the backward
// check needs.
type liveKeys map[string][]bcp.ID

func (lk liveKeys) add(id bcp.ID, c cnf.Clause) {
	k := clauseKey(c)
	lk[k] = append(lk[k], id)
}

// remove drops the newest live instance of c and returns its ID (ok=false
// when none is live).
func (lk liveKeys) remove(c cnf.Clause) (bcp.ID, bool) {
	k := clauseKey(c)
	ids := lk[k]
	if len(ids) == 0 {
		return 0, false
	}
	lk[k] = ids[:len(ids)-1]
	return ids[len(ids)-1], true
}

// clauseStore is liveKeys plus each live clause and its occurrence lists,
// which the forward check's RAT lookups read.
type clauseStore struct {
	keys liveKeys
	byID map[bcp.ID]cnf.Clause
	occ  map[cnf.Lit]map[bcp.ID]struct{}
}

func newClauseStore() *clauseStore {
	return &clauseStore{
		keys: liveKeys{},
		byID: map[bcp.ID]cnf.Clause{},
		occ:  map[cnf.Lit]map[bcp.ID]struct{}{},
	}
}

func (cs *clauseStore) add(id bcp.ID, c cnf.Clause) {
	cs.keys.add(id, c)
	cs.byID[id] = c
	for _, l := range c {
		m := cs.occ[l]
		if m == nil {
			m = map[bcp.ID]struct{}{}
			cs.occ[l] = m
		}
		m[id] = struct{}{}
	}
}

// remove drops one live instance of c and returns its ID (ok=false when
// none is live).
func (cs *clauseStore) remove(c cnf.Clause) (bcp.ID, bool) {
	id, ok := cs.keys.remove(c)
	if !ok {
		return 0, false
	}
	for _, l := range cs.byID[id] {
		delete(cs.occ[l], id)
	}
	delete(cs.byID, id)
	return id, true
}

// Verify checks a clausal proof against f by forward checking: every added
// clause must be RUP (the paper's check: falsify and propagate to a
// conflict) or, failing that, RAT on its first literal (the DRAT
// generalization: every resolvent with a live clause on the pivot is RUP).
// Deletions must name live clauses. The proof is accepted when it derives
// the empty clause or ends with the paper's final conflicting pair.
func Verify(f *cnf.Formula, p *Proof) (*Result, error) {
	nVars := f.NumVars
	for _, s := range p.Steps {
		if mv := s.C.MaxVar(); int(mv)+1 > nVars {
			nVars = int(mv) + 1
		}
	}
	eng := bcp.NewEngine(nVars)
	store := newClauseStore()
	for _, c := range f.Clauses {
		store.add(eng.Add(c), c)
	}

	res := &Result{OK: true, FailedStep: -1, StoppedAt: -1}
	for i, s := range p.Steps {
		if s.Del {
			res.Deletions++
			id, ok := store.remove(s.C)
			if !ok {
				res.OK = false
				res.FailedStep = i
				res.Reason = fmt.Sprintf("deletion of a clause that is not live: %v", s.C)
				res.Propagations = eng.Propagations()
				return res, nil
			}
			eng.Deactivate(id)
			continue
		}
		res.Additions++
		if len(s.C) == 0 {
			conflict, _ := eng.Refute(nil)
			if conflict == bcp.NoConflict {
				res.OK = false
				res.FailedStep = i
				res.Reason = "empty clause is not derivable by unit propagation"
				res.Propagations = eng.Propagations()
				return res, nil
			}
			res.Refuted = true
			res.Propagations = eng.Propagations()
			return res, nil
		}
		conflict, selfContra := eng.Refute(s.C)
		switch {
		case selfContra:
			res.Tautologies++
		case conflict == bcp.NoConflict:
			if !ratHolds(eng, store, s.C) {
				res.OK = false
				res.FailedStep = i
				res.Reason = fmt.Sprintf("clause is neither RUP nor RAT on %v: %v", s.C[0], s.C)
				res.Propagations = eng.Propagations()
				return res, nil
			}
			res.RATChecks++
		}
		store.add(eng.Add(s.C), s.C)
	}

	// No explicit empty clause: accept the paper's final-conflicting-pair
	// termination, i.e. unit propagation alone now refutes the database.
	if conflict, _ := eng.Refute(nil); conflict != bcp.NoConflict {
		res.Refuted = true
		res.Propagations = eng.Propagations()
		return res, nil
	}
	res.OK = false
	res.FailedStep = len(p.Steps)
	res.Reason = "proof ends without deriving a refutation"
	res.Propagations = eng.Propagations()
	return res, nil
}

// ratHolds checks the resolution-asymmetric-tautology condition for c with
// pivot c[0]: for every live clause d containing the pivot's negation, the
// resolvent (c \ pivot) ∪ (d \ ¬pivot) must be RUP (tautologous resolvents
// are vacuously fine).
func ratHolds(eng *bcp.Engine, store *clauseStore, c cnf.Clause) bool {
	pivot := c[0]
	for id := range store.occ[pivot.Neg()] {
		d := store.byID[id]
		resolvent := make(cnf.Clause, 0, len(c)+len(d)-2)
		for _, l := range c {
			if l != pivot {
				resolvent = append(resolvent, l)
			}
		}
		for _, l := range d {
			if l != pivot.Neg() {
				resolvent = append(resolvent, l)
			}
		}
		conflict, selfContra := eng.Refute(resolvent)
		if selfContra {
			continue // tautologous resolvent
		}
		if conflict == bcp.NoConflict {
			return false
		}
	}
	return true
}

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
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"

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

// Read parses DRUP text under cnf.DefaultParseLimits. Each line is one
// step: a line whose first field starts with 'c' is a comment, a first
// field "d" starts a deletion, and the step's clause runs to the first 0 on
// its line; whatever follows that 0 is ignored. Lines may be of any length;
// an addition line of plain integers is read by the tokenizer's whole-line
// path.
func Read(r io.Reader) (*Proof, error) { return ReadLimited(r, cnf.DefaultParseLimits()) }

// ReadLimited is Read with explicit limits — the entry point for genuinely
// untrusted input. It honours MaxClauses (which bounds the steps),
// MaxClauseLen, MaxVars and MaxBytes. Syntax errors wrap cnf.ErrMalformed
// and exceeded limits cnf.ErrLimit, the classes every reader reports.
func ReadLimited(r io.Reader, lim cnf.ParseLimits) (*Proof, error) {
	lim = lim.WithDefaults()
	t := cnf.NewTokenizer(r, lim.MaxBytes)
	p := &Proof{}
	var (
		lits cnf.Slab[cnf.Lit]
		buf  [256]int64 // LineInts' values, on the stack for most lines
	)
	vals := buf[:0]
	// lit takes one literal of the step in progress.
	lit := func(d int64) error {
		if d > int64(lim.MaxVars) || d < -int64(lim.MaxVars) {
			return &cnf.LimitError{What: "variables", Limit: int64(lim.MaxVars)}
		}
		if lits.Len() >= lim.MaxClauseLen {
			return &cnf.LimitError{What: "clause length", Limit: int64(lim.MaxClauseLen)}
		}
		lits.Append(cnf.FromDimacs(int(d)))
		return nil
	}
	// step ends the step in progress, begun on line lineNo, once its 0 is
	// read or its line has ended without one.
	step := func(del, terminated bool, lineNo int) error {
		if !terminated {
			return fmt.Errorf("%w: line %d: clause not terminated by 0", cnf.ErrMalformed, lineNo)
		}
		if len(p.Steps) >= lim.MaxClauses {
			return &cnf.LimitError{What: "clauses", Limit: int64(lim.MaxClauses)}
		}
		p.Steps = append(p.Steps, Step{Del: del, C: lits.Cut()})
		return nil
	}
	// Every step ends its line, so each line read here begins one.
	for {
		lineNo := t.Line()
		var ok bool
		if vals, ok = t.LineInts(vals[:0]); ok {
			if len(vals) == 0 {
				continue // a blank line
			}
			terminated := false
			for _, d := range vals {
				if d == 0 {
					terminated = true
					break
				}
				if err := lit(d); err != nil {
					return nil, err
				}
			}
			if err := step(false, terminated, lineNo); err != nil {
				return nil, err
			}
			continue
		}
		tok := t.Next()
		if tok == nil {
			break
		}
		if tok[0] == 'c' {
			t.SkipLine()
			continue
		}
		lineNo = t.Line()
		del := string(tok) == "d"
		if del {
			tok = t.NextInLine()
		}
		terminated := false
		for ; tok != nil; tok = t.NextInLine() {
			d, ok := cnf.ParseInt(tok)
			if !ok {
				return nil, fmt.Errorf("%w: line %d: bad token %q", cnf.ErrMalformed, lineNo, tok)
			}
			if d == 0 {
				terminated = true
				break
			}
			if err := lit(d); err != nil {
				return nil, err
			}
		}
		t.SkipLine()
		if err := step(del, terminated, lineNo); err != nil {
			return nil, err
		}
	}
	if err := t.Err(); err != nil {
		return nil, cnf.ReadErr(err, "read")
	}
	return p, nil
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

	// Incomplete is true when a run stopped before reaching a verdict (the
	// forward check's context, or the backward check's core.Options Ctx or
	// Budget, or a failed checkpoint write); the counters above then
	// describe the work done so far and OK is meaningless. StoppedAt is the
	// proof step the run had reached, or -1.
	Incomplete bool
	StoppedAt  int
}

// liveKeys maps each live clause's canonical key to its IDs, newest last,
// so a deletion line can be resolved by content. It is all the backward
// check needs.
type liveKeys struct {
	ids  map[string]*[]bcp.ID
	lits []cnf.Lit // scratch for key
	buf  []byte    // scratch for key
}

func newLiveKeys() *liveKeys { return &liveKeys{ids: map[string]*[]bcp.ID{}} }

// key encodes c's set of literals (sorted, duplicates dropped) into the
// reused scratch buffer, so clauses that differ only in literal order or
// repetition share a key. The bytes are valid until the next call.
func (lk *liveKeys) key(c cnf.Clause) []byte {
	lits := append(lk.lits[:0], c...)
	slices.Sort(lits)
	lits = slices.Compact(lits)
	buf := lk.buf[:0]
	for _, l := range lits {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
	}
	lk.lits, lk.buf = lits, buf
	return buf
}

func (lk *liveKeys) add(id bcp.ID, c cnf.Clause) {
	k := lk.key(c)
	ids := lk.ids[string(k)]
	if ids == nil {
		ids = new([]bcp.ID)
		lk.ids[string(k)] = ids
	}
	*ids = append(*ids, id)
}

// remove drops the newest live instance of c and returns its ID (ok=false
// when none is live).
func (lk *liveKeys) remove(c cnf.Clause) (bcp.ID, bool) {
	ids := lk.ids[string(lk.key(c))]
	if ids == nil || len(*ids) == 0 {
		return 0, false
	}
	id := (*ids)[len(*ids)-1]
	*ids = (*ids)[:len(*ids)-1]
	return id, true
}

// clauseStore is liveKeys plus each live clause and its occurrence lists,
// which the forward check's RAT lookups read.
type clauseStore struct {
	keys *liveKeys
	byID map[bcp.ID]cnf.Clause
	occ  map[cnf.Lit]map[bcp.ID]struct{}
}

func newClauseStore() *clauseStore {
	return &clauseStore{
		keys: newLiveKeys(),
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
//
// ctx is polled between steps and, through the engine's stop hook, inside
// long propagations. When it ends first, Verify returns the partial Result
// (Incomplete, StoppedAt the step it had reached) with ctx's bare error.
func Verify(ctx context.Context, f *cnf.Formula, p *Proof) (*Result, error) {
	nVars := f.NumVars
	for _, s := range p.Steps {
		if mv := s.C.MaxVar(); int(mv)+1 > nVars {
			nVars = int(mv) + 1
		}
	}
	eng := bcp.NewEngine(nVars)
	if ctx.Done() != nil {
		eng.SetStop(ctx.Err)
	}
	store := newClauseStore()
	for _, c := range f.Clauses {
		store.add(eng.Add(c), c)
	}

	res := &Result{OK: true, FailedStep: -1, StoppedAt: -1}
	done := func(i int, reject string, err error) (*Result, error) {
		res.Propagations = eng.Propagations()
		switch {
		case err != nil:
			res.Incomplete, res.StoppedAt = true, i
		case reject != "":
			res.OK, res.FailedStep, res.Reason = false, i, reject
		default:
			res.Refuted = true
		}
		return res, err
	}
	for i, s := range p.Steps {
		if err := ctx.Err(); err != nil {
			return done(i, "", err)
		}
		if s.Del {
			res.Deletions++
			id, ok := store.remove(s.C)
			if !ok {
				return done(i, fmt.Sprintf("deletion of a clause that is not live: %v", s.C), nil)
			}
			eng.Deactivate(id)
			continue
		}
		res.Additions++
		if len(s.C) == 0 {
			conflict, _ := eng.Refute(nil)
			if err := eng.StopErr(); err != nil {
				return done(i, "", err)
			}
			if conflict == bcp.NoConflict {
				return done(i, "empty clause is not derivable by unit propagation", nil)
			}
			return done(i, "", nil)
		}
		conflict, selfContra := eng.Refute(s.C)
		if err := eng.StopErr(); err != nil {
			return done(i, "", err)
		}
		switch {
		case selfContra:
			res.Tautologies++
		case conflict == bcp.NoConflict:
			rat, err := ratHolds(eng, store, s.C)
			if err != nil {
				return done(i, "", err)
			}
			if !rat {
				return done(i, fmt.Sprintf("clause is neither RUP nor RAT on %v: %v", s.C[0], s.C), nil)
			}
			res.RATChecks++
		}
		store.add(eng.Add(s.C), s.C)
	}

	// No explicit empty clause: accept the paper's final-conflicting-pair
	// termination, i.e. unit propagation alone now refutes the database.
	end := len(p.Steps)
	conflict, _ := eng.Refute(nil)
	if err := eng.StopErr(); err != nil {
		return done(end, "", err)
	}
	if conflict == bcp.NoConflict {
		return done(end, "proof ends without deriving a refutation", nil)
	}
	return done(end, "", nil)
}

// ratHolds checks the resolution-asymmetric-tautology condition for c with
// pivot c[0]: for every live clause d containing the pivot's negation, the
// resolvent (c \ pivot) ∪ (d \ ¬pivot) must be RUP (tautologous resolvents
// are vacuously fine). A stop-hook abort is returned as the error.
func ratHolds(eng *bcp.Engine, store *clauseStore, c cnf.Clause) (bool, error) {
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
		if err := eng.StopErr(); err != nil {
			return false, err
		}
		if selfContra {
			continue // tautologous resolvent
		}
		if conflict == bcp.NoConflict {
			return false, nil
		}
	}
	return true, nil
}

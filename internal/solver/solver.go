// Package solver implements a conflict-driven clause-learning (CDCL) SAT
// solver in the style of BerkMin (Goldberg & Novikov, DATE 2002), the solver
// the paper used to produce its proofs. It supports:
//
//   - two-watched-literal Boolean constraint propagation;
//   - conflict analysis under three learning schemes: the 1UIP scheme of
//     Chaff ("local" conflict clauses), the all-decision scheme of relsat
//     ("global" conflict clauses), and BerkMin's hybrid that deduces a
//     global clause once in a while;
//   - BerkMin's decision heuristic (topmost unsatisfied learned clause +
//     variable activities) and a plain VSIDS fallback;
//   - fixed-interval restarts and activity-driven learned-clause deletion;
//   - chronological conflict-clause proof logging — every learned clause is
//     recorded (and optionally streamed to disk) the moment it is deduced,
//     together with the exact number of resolution steps used to derive it,
//     which is the paper's lower bound on resolution-graph proof size;
//   - synthesis of the paper's final conflicting pair at a top-level
//     conflict, so traces always end with two complementary unit clauses;
//   - optional recording of full resolution chains, from which
//     internal/resolution reconstructs and checks a resolution-graph proof.
//
// The solver shares no code with the verifier (internal/bcp, internal/core):
// proofs produced here are checked by an independent implementation, which
// is the paper's entire premise.
package solver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/proof"
)

// Status is the outcome of Solve.
type Status int

const (
	// Unknown means the conflict budget was exhausted.
	Unknown Status = iota
	// Sat means a satisfying assignment was found (see Model).
	Sat
	// Unsat means unsatisfiability was proved (see Trace).
	Unsat
	// UnsatAssumptions means the formula is unsatisfiable under the
	// assumptions passed to RunAssuming (see ConflictSubset).
	UnsatAssumptions
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SATISFIABLE"
	case Unsat:
		return "UNSATISFIABLE"
	case UnsatAssumptions:
		return "UNSAT-UNDER-ASSUMPTIONS"
	default:
		return "UNKNOWN"
	}
}

// LearnScheme selects how conflict clauses are derived.
type LearnScheme int

const (
	// Learn1UIP derives the first-unique-implication-point clause (Chaff's
	// scheme; "local" clauses obtained by few resolutions).
	Learn1UIP LearnScheme = iota
	// LearnDecision resolves until only decision literals remain (relsat's
	// scheme; "global" clauses obtained by many resolutions).
	LearnDecision
	// LearnHybrid uses 1UIP but derives a decision clause every tenth
	// conflict (BerkMin's behaviour described in §6).
	LearnHybrid
)

func (l LearnScheme) String() string {
	switch l {
	case LearnDecision:
		return "decision"
	case LearnHybrid:
		return "hybrid"
	default:
		return "1uip"
	}
}

// Heuristic selects the branching heuristic.
type Heuristic int

const (
	// HeurBerkMin branches on the topmost unsatisfied learned clause's most
	// active variable, falling back to global activities.
	HeurBerkMin Heuristic = iota
	// HeurVSIDS always branches on the globally most active variable.
	HeurVSIDS
)

func (h Heuristic) String() string {
	if h == HeurVSIDS {
		return "vsids"
	}
	return "berkmin"
}

// Options configures a Solver. The zero value is a usable BerkMin-flavoured
// configuration; New fills in defaults for zero fields.
type Options struct {
	Learn     LearnScheme
	Heuristic Heuristic

	// RestartInterval is the number of conflicts between restarts
	// (BerkMin used 550). Default 550. Negative disables restarts.
	RestartInterval int

	// MaxLearnedFactor bounds the learned-clause database at
	// MaxLearnedFactor * (number of problem clauses) before reduction.
	// Default 3.0.
	MaxLearnedFactor float64

	// EmitProof accumulates the conflict-clause trace (default on via New;
	// set DisableProof to turn off for pure-speed solving).
	DisableProof bool

	// ProofWriter, when non-nil, receives each conflict clause as a DIMACS
	// line the moment it is deduced — the paper's "output to disk".
	ProofWriter io.Writer

	// RecordChains records, for every learned clause, the ordered list of
	// antecedent clause IDs whose sequential resolution yields it. Needed
	// to build a resolution-graph proof. Memory-heavy.
	RecordChains bool

	// OnLearn, when non-nil, observes every deduced conflict clause in
	// chronological order (called with a private copy). OnDelete observes
	// every learned clause the solver drops from its database. Together
	// they reconstruct a deletion-aware (DRUP-style) proof; see
	// internal/drat.Recorder.
	OnLearn  func(cnf.Clause)
	OnDelete func(cnf.Clause)

	// MaxConflicts stops the search with Unknown after this many conflicts.
	// 0 means unlimited.
	MaxConflicts int64

	// Ctx, when non-nil, is polled once per conflict; cancellation or an
	// expired deadline makes the search return Unknown promptly. Nil means
	// no context control.
	Ctx context.Context

	// Seed perturbs initial variable activities very slightly so runs with
	// different seeds explore different proofs. 0 keeps uniform zeros.
	Seed int64

	// Obs, when non-nil, receives live search metrics: solver.* counters
	// (conflicts, decisions, restarts, learned, deleted, reductions), a
	// solver.learned_len histogram, and solver.propagations / trail /
	// learnts gauges refreshed at every conflict. The handles are captured
	// once in New, so a nil Obs costs one nil check per event.
	Obs *obs.Registry

	// Progress, when non-nil, is stepped once per conflict — the natural
	// heartbeat of a CDCL search (total is usually unknown).
	Progress *obs.Progress
}

// Fixed search parameters. The decays are typed so that 1/varDecay and
// 1/clauseDecay round exactly as a run-time division of the float64 values
// would; proofs depend on every bit of the activity arithmetic.
const (
	// hybridPeriod: with LearnHybrid, every hybridPeriod-th conflict learns
	// a decision clause instead of the 1UIP clause.
	hybridPeriod = 10
	// varDecay and clauseDecay age variable and clause activities.
	varDecay    float64 = 0.95
	clauseDecay float64 = 0.999
)

func (o Options) withDefaults() Options {
	if o.RestartInterval == 0 {
		o.RestartInterval = 550
	}
	if o.MaxLearnedFactor == 0 {
		o.MaxLearnedFactor = 3.0
	}
	return o
}

// Stats aggregates search statistics.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learned      int64
	LearnedLits  int64
	Resolutions  int64 // total resolution steps over all learned clauses
	Deleted      int64
	MaxTrail     int
}

// clause is the solver-internal clause representation. ID is the global
// proof numbering: original clauses keep their index in the input formula;
// learned clause k gets nOriginal+k.
type clause struct {
	lits    []cnf.Lit
	act     float32
	id      int
	learned bool
}

type watcher struct {
	c       *clause
	blocker cnf.Lit
}

// Solver is a CDCL SAT solver. Create with New, load clauses with AddClause
// (or use Solve as a one-shot helper), then call Run.
type Solver struct {
	opts Options

	nVars     int
	nOriginal int // clauses in the input formula (for proof IDs)

	clauses []*clause // problem clauses
	learnts []*clause
	watches [][]watcher
	// arena is the flat literal storage for original clauses: their lits
	// slices alias one contiguous block in Add order, so propagation over
	// the problem clauses walks cache-local memory — the same layout
	// internal/bcp's verifier engine uses (shared layout, deliberately not
	// shared code). Learned clauses are excluded: they come and go with
	// database reductions, which would fragment the block.
	arena []cnf.Lit

	assigns  []int8 // 0 undef, 1 true, -1 false
	level    []int32
	reason   []*clause
	trailPos []int32 // position in trail (stable for level-0 assignments)
	trail    []cnf.Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap
	phase    []int8    // saved polarity: 1 true, -1 false, 0 none
	litAct   []float64 // literal activities for BerkMin polarity
	claInc   float64

	seen      []bool
	seenClear []cnf.Var

	okay         bool      // false once an empty clause was added
	emptyOrigID  int       // id of an original empty clause, -1
	unitsPending []*clause // original unit clauses, enqueued at Run start

	assumptions    []cnf.Lit
	conflictSubset []cnf.Lit
	provedUnsat    bool    // a previous run already finalized an UNSAT proof
	learntCap      float64 // current learned-DB capacity; grows on reduction

	trace    *proof.Trace
	chains   [][]int
	writeErr error

	stats Stats

	// Observability handles, captured once from Options.Obs (nil when
	// disabled — every call on them is then a no-op nil check).
	obsConflicts  *obs.Counter
	obsDecisions  *obs.Counter
	obsRestarts   *obs.Counter
	obsLearned    *obs.Counter
	obsDeleted    *obs.Counter
	obsReductions *obs.Counter
	obsLearnedLen *obs.Histogram
	obsProps      *obs.Gauge
	obsTrail      *obs.Gauge
	obsLearnts    *obs.Gauge
}

// New creates a solver over n variables.
func New(n int, opts Options) *Solver {
	o := opts.withDefaults()
	s := &Solver{
		opts:        o,
		nVars:       n,
		watches:     make([][]watcher, 2*n),
		assigns:     make([]int8, n),
		level:       make([]int32, n),
		reason:      make([]*clause, n),
		trailPos:    make([]int32, n),
		activity:    make([]float64, n),
		phase:       make([]int8, n),
		litAct:      make([]float64, 2*n),
		seen:        make([]bool, n),
		varInc:      1,
		claInc:      1,
		okay:        true,
		emptyOrigID: -1,
	}
	if !o.DisableProof {
		s.trace = proof.New()
	}
	// Nil registry hands out nil handles; every use below is then a no-op.
	s.obsConflicts = o.Obs.Counter("solver.conflicts")
	s.obsDecisions = o.Obs.Counter("solver.decisions")
	s.obsRestarts = o.Obs.Counter("solver.restarts")
	s.obsLearned = o.Obs.Counter("solver.learned")
	s.obsDeleted = o.Obs.Counter("solver.deleted")
	s.obsReductions = o.Obs.Counter("solver.reductions")
	s.obsLearnedLen = o.Obs.Histogram("solver.learned_len")
	s.obsProps = o.Obs.Gauge("solver.propagations")
	s.obsTrail = o.Obs.Gauge("solver.max_trail")
	s.obsLearnts = o.Obs.Gauge("solver.learnts")
	if o.Seed != 0 {
		// xorshift64 perturbation; keeps runs deterministic per seed.
		x := uint64(o.Seed)
		for v := range s.activity {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s.activity[v] = float64(x%1000) * 1e-9
		}
	}
	s.order = newVarHeap(s)
	for v := 0; v < n; v++ {
		s.order.push(cnf.Var(v))
	}
	return s
}

// NewFromFormula creates a solver and loads every clause of f. Clause i of f
// receives proof ID i.
func NewFromFormula(f *cnf.Formula, opts Options) *Solver {
	s := New(f.NumVars, opts)
	nLits := 0
	for _, c := range f.Clauses {
		nLits += len(c)
	}
	s.arena = make([]cnf.Lit, 0, nLits)
	for i, c := range f.Clauses {
		s.addOriginal(c, i)
	}
	s.nOriginal = len(f.Clauses)
	return s
}

// growVars extends the solver's variable range to n variables; used when
// assumptions or added clauses mention variables the initial formula did
// not declare.
func (s *Solver) growVars(n int) {
	if n <= s.nVars {
		return
	}
	for v := s.nVars; v < n; v++ {
		s.watches = append(s.watches, nil, nil)
		s.assigns = append(s.assigns, 0)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, nil)
		s.trailPos = append(s.trailPos, 0)
		s.activity = append(s.activity, 0)
		s.phase = append(s.phase, 0)
		s.litAct = append(s.litAct, 0, 0)
		s.seen = append(s.seen, false)
		s.order.index = append(s.order.index, -1)
		s.order.push(cnf.Var(v))
	}
	s.nVars = n
}

// AddClause adds a clause between solving episodes, enabling incremental
// use together with RunAssuming. The variable range grows as needed.
//
// Proof-ID bookkeeping assigns original clauses the prefix of the ID space,
// so clauses can only be added while that prefix is still open: before any
// conflict clause has been learned, or at any time when proof logging is
// disabled. Otherwise an error is returned (this mirrors why incremental
// proof logging historically required the DRAT-style addition/deletion
// format rather than the paper's plain conflict-clause trace).
func (s *Solver) AddClause(lits cnf.Clause) error {
	if !s.opts.DisableProof && s.stats.Learned > 0 {
		return errors.New("solver: cannot add clauses after learning started while proof logging is enabled")
	}
	if s.provedUnsat {
		return nil // already unsat; the clause changes nothing
	}
	if mv := lits.MaxVar(); int(mv) >= s.nVars {
		s.growVars(int(mv) + 1)
	}
	s.cancelUntil(0)
	id := s.nOriginal
	s.nOriginal++

	norm, taut := lits.Normalize()
	if taut {
		return nil
	}
	if len(norm) == 0 {
		s.okay = false
		if s.emptyOrigID < 0 {
			s.emptyOrigID = id
		}
		return nil
	}
	norm = s.arenaAlloc(norm)
	c := &clause{lits: norm, id: id}
	s.clauses = append(s.clauses, c)
	if len(norm) == 1 {
		s.unitsPending = append(s.unitsPending, c)
		return nil
	}
	// Order two non-false (under the persistent level-0 assignment)
	// literals into the watch positions. A clause whose watches are
	// currently false would miss propagation events, because the
	// falsifying enqueues already happened.
	free := 0
	for i := 0; i < len(norm) && free < 2; i++ {
		if s.value(norm[i]) != -1 {
			norm[free], norm[i] = norm[i], norm[free]
			free++
		}
	}
	switch free {
	case 0:
		// Falsified outright at level 0: the formula is now unsatisfiable;
		// derive the final conflicting pair from the level-0 reasons.
		s.provedUnsat = true
		s.finalize(c)
		return nil
	case 1:
		if s.value(norm[0]) == 0 {
			// Unit under the level-0 assignment: assert it now.
			if !s.enqueue(norm[0], c) {
				s.provedUnsat = true
				s.finalize(c)
				return nil
			}
		}
		// A true watch never needs to fire; attaching is still safe.
	}
	s.attach(c)
	return nil
}

// arenaAlloc moves a normalized clause's literals into the flat arena and
// returns the aliasing slice (full-capacity-capped so appends can never
// bleed into a neighbor). If the arena's backing array grows, previously
// handed-out slices keep their old storage — still correct, merely no
// longer contiguous with the new block.
func (s *Solver) arenaAlloc(norm cnf.Clause) cnf.Clause {
	off := len(s.arena)
	s.arena = append(s.arena, norm...)
	return s.arena[off:len(s.arena):len(s.arena)]
}

// value returns the literal's current value: 0 undef, 1 true, -1 false.
func (s *Solver) value(l cnf.Lit) int8 {
	v := s.assigns[l.Var()]
	if l.IsNeg() {
		return -v
	}
	return v
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// addOriginal installs an input clause with the given proof ID. Tautologies
// are dropped from the database (they can never propagate or be reasons) but
// keep their ID reserved. Empty clauses mark the instance trivially unsat.
func (s *Solver) addOriginal(raw cnf.Clause, id int) {
	norm, taut := raw.Normalize()
	if taut {
		return
	}
	if len(norm) == 0 {
		s.okay = false
		if s.emptyOrigID < 0 {
			s.emptyOrigID = id
		}
		return
	}
	c := &clause{lits: s.arenaAlloc(norm), id: id}
	if len(norm) == 1 {
		// Defer the enqueue to Run's initial propagation so contradictory
		// units produce a proper final conflicting pair. Store as a
		// pseudo-watched unit by treating it like a normal clause with a
		// self watch: simplest is a dedicated unit list.
		s.unitsPending = append(s.unitsPending, c)
		s.clauses = append(s.clauses, c)
		return
	}
	s.attach(c)
	s.clauses = append(s.clauses, c)
}

func (s *Solver) attach(c *clause) {
	s.watches[c.lits[0].Neg()] = append(s.watches[c.lits[0].Neg()], watcher{c, c.lits[1]})
	s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], watcher{c, c.lits[0]})
}

func (s *Solver) detach(c *clause) {
	for _, wl := range []cnf.Lit{c.lits[0].Neg(), c.lits[1].Neg()} {
		ws := s.watches[wl]
		for i := range ws {
			if ws[i].c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[wl] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// enqueue assigns l true with the given reason; returns false on conflict
// with the current assignment.
func (s *Solver) enqueue(l cnf.Lit, from *clause) bool {
	switch s.value(l) {
	case 1:
		return true
	case -1:
		return false
	}
	v := l.Var()
	if l.IsNeg() {
		s.assigns[v] = -1
	} else {
		s.assigns[v] = 1
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trailPos[v] = int32(len(s.trail))
	s.trail = append(s.trail, l)
	if len(s.trail) > s.stats.MaxTrail {
		s.stats.MaxTrail = len(s.trail)
	}
	if from != nil {
		s.stats.Propagations++
	}
	return true
}

// cancelUntil backtracks to the given decision level, saving phases.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		if l.IsNeg() {
			s.phase[v] = -1
		} else {
			s.phase[v] = 1
		}
		s.assigns[v] = 0
		s.reason[v] = nil
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = bound
}

// Model returns the satisfying assignment after a Sat result; index v holds
// the value of variable v.
func (s *Solver) Model() []bool {
	m := make([]bool, s.nVars)
	for v := range m {
		m[v] = s.assigns[v] == 1
	}
	return m
}

// Trace returns the accumulated conflict-clause proof (nil when proof
// logging was disabled). Valid after Run returned Unsat.
func (s *Solver) Trace() *proof.Trace { return s.trace }

// Chains returns the recorded resolution chains, parallel to the trace's
// clauses, when Options.RecordChains was set. Chain k lists the clause IDs
// whose left-to-right sequential resolution yields trace clause k.
func (s *Solver) Chains() [][]int { return s.chains }

// Stats returns a copy of the search statistics.
func (s *Solver) Stats() Stats { return s.stats }

// WriteError reports any error that occurred while streaming the proof to
// Options.ProofWriter.
func (s *Solver) WriteError() error { return s.writeErr }

// emit records a deduced conflict clause: appended to the in-memory trace,
// streamed to the proof writer, and its chain stored when requested. Called
// in chronological deduction order, before the clause is attached.
func (s *Solver) emit(lits []cnf.Lit, resolutions int64, chain []int) {
	s.stats.Learned++
	s.stats.LearnedLits += int64(len(lits))
	s.stats.Resolutions += resolutions
	s.obsLearned.Inc()
	s.obsLearnedLen.Observe(int64(len(lits)))
	if s.trace != nil {
		s.trace.Append(append(cnf.Clause(nil), lits...), resolutions)
	}
	if s.opts.OnLearn != nil {
		s.opts.OnLearn(append(cnf.Clause(nil), lits...))
	}
	if s.opts.RecordChains {
		s.chains = append(s.chains, chain)
	}
	if s.opts.ProofWriter != nil && s.writeErr == nil {
		buf := make([]byte, 0, 8*len(lits)+4)
		for _, l := range lits {
			buf = strconv.AppendInt(buf, int64(l.Dimacs()), 10)
			buf = append(buf, ' ')
		}
		buf = append(buf, '0', '\n')
		if _, err := s.opts.ProofWriter.Write(buf); err != nil {
			s.writeErr = fmt.Errorf("solver: proof stream: %w", err)
		}
	}
}

// nextLearnedID returns the proof ID the next learned clause will get.
func (s *Solver) nextLearnedID() int {
	return s.nOriginal + int(s.stats.Learned)
}

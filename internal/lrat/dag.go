package lrat

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cnf"
	"repro/internal/sched"
)

// The hint DAG. Every addition step names its antecedents, so the proof's
// clause-dependency graph is already on disk: an edge runs from the step
// that added a hinted clause to the step citing it (formula clauses have no
// adding step and contribute no edges). Replays only read the immutable
// id→clause table, so the DAG's edges are not needed for correctness of the
// hinted check — any order works — but scheduling along them keeps a
// worker's next task citing clauses it just touched, and it is the shape
// whose critical path bounds parallel wall-clock. Task costs are
// 1 + len(hints): replay cost is linear in the hint list.

// Replayer exposes step-at-a-time hinted replay for external schedulers
// (the scheduler benchmark in internal/bench). It is the structural pass of
// Check (id resolution, liveness intervals, hint arena) frozen into an
// immutable table that any number of ReplayWorkers can share.
type Replayer struct {
	p  *Proof
	ck *checker
	nf int
}

// NewReplayer runs the structural pass over the proof. A structural
// rejection (dangling id, deleted antecedent, non-increasing ids) returns
// an error naming the step; replay failures are reported per step later.
func NewReplayer(f *cnf.Formula, p *Proof) (*Replayer, error) {
	ck, rej := buildChecker(f, p)
	if rej != nil {
		return nil, fmt.Errorf("lrat: structural rejection at step %d: %s", rej.step, rej.reason)
	}
	return &Replayer{p: p, ck: ck, nf: f.NumClauses()}, nil
}

// Steps reports the number of proof steps (= scheduler tasks; deletions are
// no-op tasks so task indices equal step indices).
func (r *Replayer) Steps() int { return len(r.p.Steps) }

// DAG builds the clause-dependency DAG over the proof's steps.
func (r *Replayer) DAG() *sched.DAG {
	b := sched.NewBuilder(len(r.p.Steps))
	for k := range r.p.Steps {
		if r.p.Steps[k].Del {
			continue
		}
		hints := r.ck.hintSlots[r.ck.hintOff[k]:r.ck.hintOff[k+1]]
		b.SetCost(k, int64(1+len(hints)))
		for _, slot := range hints {
			// addAt < k is guaranteed: buildChecker rejects hints that cite
			// a step not yet derived.
			if at := r.ck.refs[slot].addAt; at >= 0 {
				b.AddEdge(int(at), k)
			}
		}
	}
	return b.Build()
}

// NewWorker allocates one worker's private replay scratchpad. Workers are
// not safe for concurrent use; allocate one per goroutine.
func (r *Replayer) NewWorker() *ReplayWorker {
	return &ReplayWorker{r: r, st: newStepChecker(r.ck)}
}

// ReplayWorker replays individual steps against the shared table.
type ReplayWorker struct {
	r  *Replayer
	st *stepChecker
}

// Step replays step k. It returns the number of hint clauses scanned and a
// non-empty reason if the replay failed; deletion steps are no-ops.
func (w *ReplayWorker) Step(k int) (hintsScanned int64, reason string) {
	s := &w.r.p.Steps[k]
	if s.Del {
		return 0, ""
	}
	return w.st.check(s, w.r.ck.hintSlots[w.r.ck.hintOff[k]:w.r.ck.hintOff[k+1]])
}

// BuildDAG constructs the hint DAG of a bare proof without its formula, for
// diagnostics (proofstat): hints that do not name an addition step of the
// proof — formula clauses, or ids a malformed proof dangles — contribute no
// edges, and edges that would not point forward are skipped rather than
// rejected. Use NewReplayer for the checked construction.
func BuildDAG(p *Proof) *sched.DAG {
	b := sched.NewBuilder(len(p.Steps))
	idx := make(map[int64]int, p.Additions())
	for k := range p.Steps {
		s := &p.Steps[k]
		if s.Del {
			continue
		}
		b.SetCost(k, int64(1+len(s.Hints)))
		for _, h := range s.Hints {
			if h <= 0 {
				continue
			}
			if at, ok := idx[h]; ok && at < k {
				b.AddEdge(at, k)
			}
		}
		idx[s.ID] = k
	}
	return b.Build()
}

// checkDAG is Check's DAG-scheduled mode: the same per-step replay as the
// chunked mode, dispatched by the work-stealing scheduler over the hint DAG
// instead of by contiguous index ranges. Verdict semantics are identical —
// the first (lowest-index) failing step decides, a derived empty clause
// sets Refuted, cancellation yields Incomplete with the lowest step index
// that observed it — because every step below the minimum failure is still
// executed and failures take an atomic min.
func checkDAG(p *Proof, ck *checker, workers int, opt Options, res *Result) (*Result, error) {
	ctx := opt.Ctx
	d := (&Replayer{p: p, ck: ck}).DAG()

	var (
		failStep   int64 = math.MaxInt64
		reasonMu   sync.Mutex
		reasons    = map[int]string{}
		hintsTotal int64
		refuted    atomic.Bool
		stoppedAt  int64 = math.MaxInt64
	)
	sts := make([]*stepChecker, workers)
	fn := func(w, k, attempt int) error {
		if ctx != nil && ctx.Err() != nil {
			atomicMin(&stoppedAt, int64(k))
			return ctx.Err()
		}
		if int64(k) > atomic.LoadInt64(&failStep) {
			return nil // a strictly earlier failure already decides the verdict
		}
		s := &p.Steps[k]
		if s.Del {
			return nil
		}
		st := sts[w]
		if st == nil || attempt > 0 {
			st = newStepChecker(ck)
			sts[w] = st
		}
		n, why := st.check(s, ck.hintSlots[ck.hintOff[k]:ck.hintOff[k+1]])
		atomic.AddInt64(&hintsTotal, n)
		if why != "" {
			if atomicMin(&failStep, int64(k)) {
				reasonMu.Lock()
				reasons[k] = why
				reasonMu.Unlock()
			}
			return nil
		}
		if len(s.C) == 0 {
			refuted.Store(true)
		}
		return nil
	}
	_, err := sched.Run(d, sched.Options{
		Workers: workers, Ctx: ctx, Obs: opt.Obs, TrackPrefix: "lrat",
	}, fn)

	res.HintsScanned = hintsTotal
	opt.Obs.Counter("lrat.hints_scanned").Add(hintsTotal)
	opt.Obs.Counter("lrat.steps_checked").Add(int64(res.Additions))
	if err != nil {
		res.Incomplete = true
		if sa := atomic.LoadInt64(&stoppedAt); sa != math.MaxInt64 {
			res.StoppedAt = int(sa)
		}
		return res, err
	}
	if fs := atomic.LoadInt64(&failStep); fs != math.MaxInt64 {
		res.FailedStep = int(fs)
		reasonMu.Lock()
		res.Reason = reasons[int(fs)]
		reasonMu.Unlock()
		return res, nil
	}
	res.Refuted = refuted.Load()
	if !res.Refuted {
		res.Reason = "no empty clause derived"
		return res, nil
	}
	res.OK = true
	return res, nil
}

// atomicMin lowers *p to v and reports whether v became the new minimum.
func atomicMin(p *int64, v int64) bool {
	for {
		cur := atomic.LoadInt64(p)
		if v >= cur {
			return false
		}
		if atomic.CompareAndSwapInt64(p, cur, v) {
			return true
		}
	}
}

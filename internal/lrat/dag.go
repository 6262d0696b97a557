package lrat

import (
	"math"
	"sync"
	"sync/atomic"

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

// hintDAG builds the clause-dependency DAG over the proof's steps from the
// checker's resolved hints. Deletions are no-op tasks, so task indices
// equal step indices.
func hintDAG(p *Proof, ck *checker) *sched.DAG {
	b := sched.NewBuilder(len(p.Steps))
	for k := range p.Steps {
		if p.Steps[k].Del {
			continue
		}
		hints := ck.hintSlots[ck.hintOff[k]:ck.hintOff[k+1]]
		b.SetCost(k, int64(1+len(hints)))
		for _, slot := range hints {
			// addAt < k is guaranteed: buildChecker rejects hints that cite
			// a step not yet derived.
			if at := ck.refs[slot].addAt; at >= 0 {
				b.AddEdge(int(at), k)
			}
		}
	}
	return b.Build()
}

// BuildDAG constructs the hint DAG of a bare proof without its formula, for
// diagnostics (proofstat): hints that do not name an addition step of the
// proof — formula clauses, or ids a malformed proof dangles — contribute no
// edges, and edges that would not point forward are skipped rather than
// rejected. Check builds the checked DAG itself.
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
// sequential mode, dispatched by the work-stealing scheduler over the hint
// DAG instead of in step order. Verdict semantics are identical —
// the first (lowest-index) failing step decides, a derived empty clause
// sets Refuted, cancellation yields Incomplete with the lowest step index
// that observed it — because every step below the minimum failure is still
// executed and failures take an atomic min.
func checkDAG(p *Proof, ck *checker, workers int, opt Options, res *Result) (*Result, error) {
	ctx := opt.Ctx
	d := hintDAG(p, ck)

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

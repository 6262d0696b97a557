package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lrat"
	"repro/internal/proof"
	"repro/internal/sched"
)

// Parallel-schedule benchmark: measures what dependency-aware scheduling
// buys over the fixed-chunk split. Each instance is a hand-built formula +
// trace pair whose shape is adversarial for chunking — expensive steps
// clustered at the front, most of the trace redundant — and the same
// verdict is derived two ways:
//
//   - chunk — VerifyParallelOpts with the fixed-chunk schedule: every
//     worker builds a private clause database and every step is checked by
//     unit propagation, marked or not (chunking cannot honor check-marked).
//   - dag   — what dpv -sched dag runs: one sequential check-marked pass
//     (core.Verify) records LRAT hints, then lrat.Check rechecks them with
//     the work-stealing scheduler over the hint DAG, by propagation-free
//     replay.
//
// The headline Speedup is suite-total chunk wall time over suite-total DAG
// wall time at the same worker count; the acceptance floor is 1.3x. The
// scheduler itself is measured separately (T1 = one worker replaying every
// step, TW = the work-stealing run), and CritRatio compares TW against the
// Brent lower bound max(T1/P, T1*CritCost/TotalCost) with P capped at the
// machine's CPU count — on a single-core host the bound degenerates to T1
// and CritRatio is exactly the scheduler's overhead factor, which must stay
// under 2x.

// ParSpeedupFloor is the minimum acceptable suite-aggregate chunk/DAG
// speedup, and ParCritRatioCeil the maximum acceptable ratio of the
// work-stealing wall time to its critical-path lower bound. Both are only
// enforced above the wall-time noise floor (minWallMillis).
const (
	ParSpeedupFloor  = 1.3
	ParCritRatioCeil = 2.0
)

// ParInstance is a named formula + trace pair built for scheduler
// benchmarking (no solver involved: the trace shape is the experiment).
type ParInstance struct {
	Name string
	F    *cnf.Formula
	T    *proof.Trace
}

// parLit converts a 1-based variable number to a literal.
func parLit(v int, neg bool) cnf.Lit {
	if neg {
		return cnf.FromDimacs(-v)
	}
	return cnf.FromDimacs(v)
}

// selectorBlocks builds the benchmark family. Every block b has a selector
// s_b gating a private implication chain of length chainLen:
//
//	(¬s_b ∨ c_{b,1})  (¬c_{b,i} ∨ c_{b,i+1})  (¬s_b ∨ ¬c_{b,len})
//
// so the unit clause (¬s_b) is RUP at a cost of ~chainLen propagations and
// cites the whole chain in its hints. Nothing propagates at the root: every
// chain is dormant until its selector is asserted.
//
// The trace derives (¬s_b) for every junk block first — long chains,
// clustered at the front, exactly where a fixed-chunk split lands them on
// worker zero — then for every marked block, and ends with the empty
// clause, which conflicts on one formula clause (s_1 ∨ … ∨ s_marked) over
// the MARKED selectors only. The marking walk therefore never touches a
// junk step: check-marked verification skips them, chunked check-all
// cannot.
//
// depth > 1 additionally chains the marked units into derivation layers:
// marked block k's gate clause carries ¬s_{k-1} of the previous marked
// block, so its check is only RUP once step k-1 is in the database — a
// critical path for the DAG scheduler to respect.
func selectorBlocks(name string, junk, junkLen, marked, markedLen, depth int) ParInstance {
	f := cnf.NewFormula(0)
	tr := proof.New()
	next := 1 // next fresh 1-based variable

	// block emits the clauses for one selector-gated chain and returns the
	// selector variable. gate, when non-zero, is a selector whose trace unit
	// (¬gate) must already be derived for this block's check to propagate.
	block := func(chainLen, gate int) int {
		s := next
		next++
		c0 := next
		next += chainLen
		if gate != 0 {
			f.AddClause(cnf.Clause{parLit(s, true), parLit(gate, false), parLit(c0, false)})
		} else {
			f.AddClause(cnf.Clause{parLit(s, true), parLit(c0, false)})
		}
		for i := 0; i < chainLen-1; i++ {
			f.AddClause(cnf.Clause{parLit(c0+i, true), parLit(c0+i+1, false)})
		}
		f.AddClause(cnf.Clause{parLit(s, true), parLit(c0+chainLen-1, true)})
		return s
	}

	junkSel := make([]int, junk)
	for b := range junkSel {
		junkSel[b] = block(junkLen, 0)
	}
	markedSel := make([]int, marked)
	for b := range markedSel {
		gate := 0
		if depth > 1 && b%depth != 0 {
			gate = markedSel[b-1] // chain within a layer of `depth` blocks
		}
		markedSel[b] = block(markedLen, gate)
	}

	// The conflict clause the empty step falls over: only marked selectors.
	disj := make(cnf.Clause, 0, marked)
	for _, s := range markedSel {
		disj = append(disj, parLit(s, false))
	}
	f.AddClause(disj)

	for _, s := range junkSel {
		tr.Append(cnf.Clause{parLit(s, true)}, 1)
	}
	for _, s := range markedSel {
		tr.Append(cnf.Clause{parLit(s, true)}, 1)
	}
	tr.Append(cnf.Clause{}, 1)
	return ParInstance{Name: name, F: f, T: tr}
}

// ParInstances returns the full benchmark suite. Quick mode keeps only the
// headline imbalanced instance — same name and parameters, so a quick run
// still gates against the committed full-suite baseline.
func ParInstances(quick bool) []ParInstance {
	insts := []ParInstance{
		// Front-loaded junk: 64 long dead chains a chunk split lands on the
		// first workers, 48 shorter marked chains doing the real work.
		selectorBlocks("par-imbalanced", 64, 900, 48, 400, 1),
		// All-marked wide layer: every step replayed, maximal steal
		// traffic, and enough replay wall (T1 past the noise floor) to make
		// the critical-path-ratio ceiling a real gate.
		selectorBlocks("par-wide", 0, 0, 768, 1200, 1),
		// Deep derivation chains: layers of 24 dependent marked steps.
		selectorBlocks("par-deep", 0, 0, 240, 500, 24),
	}
	if quick {
		return insts[:1]
	}
	return insts
}

// ParInstanceReport is one instance's measurements.
type ParInstanceReport struct {
	Name     string `json:"name"`
	Vars     int    `json:"vars"`
	Clauses  int    `json:"clauses"`
	TraceLen int    `json:"trace_len"`
	Marked   int    `json:"marked_steps"`

	// The recorded hint DAG's shape: deterministic functions of the
	// instance and the emission code, gated strictly.
	DAGStats sched.Stats `json:"dag"`

	// End-to-end pipeline walls, best of iters, same worker count.
	ChunkMillis float64 `json:"chunk_ms"`
	DAGMillis   float64 `json:"dag_ms"`
	Speedup     float64 `json:"speedup"` // chunk over dag

	// Scheduler-level replay walls: T1 is one worker stepping the whole
	// recording, TW the work-stealing run at Workers.
	T1Millis  float64 `json:"t1_ms"`
	TWMillis  float64 `json:"tw_ms"`
	Steals    int64   `json:"steals"`
	CritRatio float64 `json:"crit_ratio"` // TW over the Brent lower bound
}

// ParReport is the whole benchmark, serialised to BENCH_par.json.
type ParReport struct {
	Iters   int `json:"iters"`
	Workers int `json:"workers"`
	// EffectiveCPUs is runtime.NumCPU() at measurement time: the P in the
	// Brent bound. Committed baselines record it so a reader can interpret
	// CritRatio (on a 1-CPU host the bound is T1 and the ratio is pure
	// scheduler overhead).
	EffectiveCPUs int                 `json:"effective_cpus"`
	Instances     []ParInstanceReport `json:"instances"`

	TotalChunkMillis float64 `json:"total_chunk_ms"`
	TotalDAGMillis   float64 `json:"total_dag_ms"`
	// Speedup is suite-total chunk wall over suite-total DAG wall.
	Speedup float64 `json:"speedup"`
}

// parMeasure times fn, best of iters.
func parMeasure(iters int, fn func() error) (float64, error) {
	best := time.Duration(-1)
	for it := 0; it < iters; it++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); best < 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / 1e6, nil
}

// ParBench runs the suite at the given worker count (the acceptance
// numbers use 8).
func ParBench(insts []ParInstance, workers, iters int) (*ParReport, error) {
	if iters < 1 {
		iters = 1
	}
	if workers < 1 {
		workers = 8
	}
	rep := &ParReport{Iters: iters, Workers: workers, EffectiveCPUs: runtime.NumCPU()}
	for _, inst := range insts {
		ir, err := parBenchOne(inst, workers, iters)
		if err != nil {
			return nil, err
		}
		rep.Instances = append(rep.Instances, *ir)
		rep.TotalChunkMillis += ir.ChunkMillis
		rep.TotalDAGMillis += ir.DAGMillis
	}
	rep.Speedup = ratio(rep.TotalChunkMillis, rep.TotalDAGMillis)
	return rep, nil
}

func parBenchOne(inst ParInstance, workers, iters int) (*ParInstanceReport, error) {
	ir := &ParInstanceReport{
		Name: inst.Name, Vars: inst.F.NumVars,
		Clauses: inst.F.NumClauses(), TraceLen: inst.T.Len(),
	}

	// One producing run records the hints the scheduler-level measurements
	// replay (the end-to-end DAG timing below re-records its own).
	rec := new(lrat.Recorder)
	res, err := core.Verify(inst.F, inst.T, core.Options{Mode: core.ModeCheckMarked, Hints: rec})
	if err != nil {
		return nil, fmt.Errorf("bench: %s: producing run: %w", inst.Name, err)
	}
	if !res.OK {
		return nil, fmt.Errorf("bench: %s: proof rejected at %d", inst.Name, res.FailedIndex)
	}
	ir.Marked = res.MarkedProof
	lp, err := rec.Proof()
	if err != nil {
		return nil, fmt.Errorf("bench: %s: recorded proof: %w", inst.Name, err)
	}
	rep, err := lrat.NewReplayer(inst.F, lp)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: replayer: %w", inst.Name, err)
	}
	d := rep.DAG()
	ir.DAGStats = d.Stats()

	// End-to-end: fixed-chunk check-all vs the sequential check plus a
	// DAG-scheduled hinted recheck, both at the same requested worker count.
	ir.ChunkMillis, err = parMeasure(iters, func() error {
		r, err := core.VerifyParallelOpts(inst.F, inst.T,
			core.Options{Mode: core.ModeCheckAll}, workers)
		if err != nil {
			return fmt.Errorf("bench: %s: chunk: %w", inst.Name, err)
		}
		if !r.OK {
			return fmt.Errorf("bench: %s: chunk rejected at %d", inst.Name, r.FailedIndex)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ir.DAGMillis, err = parMeasure(iters, func() error {
		rec := new(lrat.Recorder)
		r, err := core.Verify(inst.F, inst.T, core.Options{Mode: core.ModeCheckMarked, Hints: rec})
		if err != nil {
			return fmt.Errorf("bench: %s: dag: %w", inst.Name, err)
		}
		if !r.OK {
			return fmt.Errorf("bench: %s: dag rejected at %d", inst.Name, r.FailedIndex)
		}
		lp, err := rec.Proof()
		if err != nil {
			return fmt.Errorf("bench: %s: dag: recorded proof: %w", inst.Name, err)
		}
		lr, err := lrat.Check(inst.F, lp, lrat.Options{Workers: workers, Strategy: sched.StrategyDAG})
		if err != nil {
			return fmt.Errorf("bench: %s: dag recheck: %w", inst.Name, err)
		}
		if !lr.OK {
			return fmt.Errorf("bench: %s: dag recheck rejected step %d: %s", inst.Name, lr.FailedStep, lr.Reason)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ir.Speedup = ratio(ir.ChunkMillis, ir.DAGMillis)

	// Scheduler-level: T1 replays every recorded step on one scratchpad.
	ir.T1Millis, err = parMeasure(iters, func() error {
		rw := rep.NewWorker()
		for k := 0; k < rep.Steps(); k++ {
			if _, why := rw.Step(k); why != "" {
				return fmt.Errorf("bench: %s: T1 replay step %d: %s", inst.Name, k, why)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// TW drives sched.Run directly, which also surfaces the steal count.
	// More workers than the widest antilevel can never run at once.
	w := min(workers, max(ir.DAGStats.MaxWidth, 1))
	var steals int64
	ir.TWMillis, err = parMeasure(iters, func() error {
		rws := make([]*lrat.ReplayWorker, w)
		stats, err := sched.Run(d, sched.Options{Workers: w}, func(wk, k, attempt int) error {
			rw := rws[wk]
			if rw == nil || attempt > 0 {
				rw = rep.NewWorker()
				rws[wk] = rw
			}
			if _, why := rw.Step(k); why != "" {
				return fmt.Errorf("bench: %s: TW replay step %d: %s", inst.Name, k, why)
			}
			return nil
		})
		if err != nil {
			return err
		}
		steals = stats.Steals
		return nil
	})
	if err != nil {
		return nil, err
	}
	ir.Steals = steals

	// Brent bound with P capped at the real CPU count: requesting 8 workers
	// on one core cannot beat T1, and pretending otherwise would let a
	// single-core host "pass" any overhead.
	peff := workers
	if n := runtime.NumCPU(); peff > n {
		peff = n
	}
	bound := ir.T1Millis / float64(peff)
	if ir.DAGStats.TotalCost > 0 {
		if cb := ir.T1Millis * float64(ir.DAGStats.CritCost) / float64(ir.DAGStats.TotalCost); cb > bound {
			bound = cb
		}
	}
	ir.CritRatio = ratio(ir.TWMillis, bound)
	return ir, nil
}

// CheckFloors enforces the acceptance criteria on a report: the aggregate
// chunk/DAG speedup floor and the per-instance critical-path ratio ceiling.
// Measurements under the wall-time noise floor are not judged (a
// sub-10ms wall cannot separate scheduling from timer jitter). It returns
// one human-readable violation per failure, empty on a pass.
func (r *ParReport) CheckFloors() []string {
	var v []string
	if r.TotalChunkMillis >= minWallMillis && r.TotalDAGMillis >= minWallMillis/wallTolFactor {
		if r.Speedup < ParSpeedupFloor {
			v = append(v, fmt.Sprintf("aggregate chunk/dag speedup %.2fx under the %.1fx floor",
				r.Speedup, ParSpeedupFloor))
		}
	}
	for _, ir := range r.Instances {
		if ir.T1Millis < minWallMillis {
			continue
		}
		if ir.CritRatio > ParCritRatioCeil {
			v = append(v, fmt.Sprintf("%s: wall %.2fx of the critical-path bound (ceil %.1fx)",
				ir.Name, ir.CritRatio, ParCritRatioCeil))
		}
	}
	return v
}

package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bcp"
	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/proof"
)

// syntheticTrace returns m random clauses of 2..2*avg-2 literals over the
// formula's variables: the size and shape of a solver's proof, without
// running the solver.
func syntheticTrace(f *cnf.Formula, m, avg int, seed int64) *proof.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := proof.New()
	for i := 0; i < m; i++ {
		c := make(cnf.Clause, 2+rng.Intn(2*avg-3))
		for k := range c {
			c[k] = cnf.NewLit(cnf.Var(rng.Intn(f.NumVars)), rng.Intn(2) == 0)
		}
		tr.Append(c, 0)
	}
	return tr
}

// builtEngineHeap measures the live heap of a watched engine holding f and
// tr, built the way Verify builds it. With markAll, every clause is then
// passed to MarkCore, which fills the core watch lists as a run that marks
// everything would.
func builtEngineHeap(f *cnf.Formula, tr *proof.Trace, markAll bool) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng := bcp.NewEngine(f.NumVars)
	eng.Reserve(len(f.Clauses)+tr.Len(), numLits(f.Clauses)+numLits(tr.Clauses))
	for _, c := range f.Clauses {
		eng.Add(c)
	}
	for _, c := range tr.Clauses {
		eng.Add(c)
	}
	if markAll {
		for id := 0; id < eng.NumClauses(); id++ {
			eng.MarkCore(bcp.ID(id))
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(eng)
	runtime.KeepAlive(f) // the inputs stay live, so only the engine is counted
	runtime.KeepAlive(tr)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestEstimateVerifyBytesBoundsBuiltEngine: the budget estimate must not
// undercount a built engine, even one whose every clause is marked core, or
// a memory budget would admit runs that exceed it, and must stay within a
// factor of 2 of an unmarked one so it does not refuse runs that fit. The
// inputs are the benchmark's php_8 and php_8_pin40 formulas with synthetic
// traces of their proofs' clause counts and mean lengths.
func TestEstimateVerifyBytesBoundsBuiltEngine(t *testing.T) {
	const maxFactor = 2.0
	for _, tc := range []struct {
		inst   gen.Instance
		m, avg int
	}{
		{gen.PHP(8), 18555, 17},
		{gen.PHPPinned(8, 40), 19593, 18},
	} {
		tr := syntheticTrace(tc.inst.F, tc.m, tc.avg, 1)
		est := EstimateVerifyBytes(tc.inst.F, tr)
		heap := builtEngineHeap(tc.inst.F, tr, false)
		marked := builtEngineHeap(tc.inst.F, tr, true)
		t.Logf("%s: estimate %d B, built engine %d B (%.2fx), all marked core %d B (%.2fx)", tc.inst.Name,
			est, heap, float64(est)/float64(heap), marked, float64(est)/float64(marked))
		if est < marked {
			t.Errorf("%s: estimate %d B is below the all-core engine's %d B", tc.inst.Name, est, marked)
		}
		if float64(est) > maxFactor*float64(heap) {
			t.Errorf("%s: estimate %d B exceeds %.0fx the built engine's %d B", tc.inst.Name, est, maxFactor, heap)
		}
	}
}

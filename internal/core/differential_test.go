package core

import (
	"fmt"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/lrat"
	"repro/internal/proof"
	"repro/internal/solver"
)

// Differential coverage for the incremental watched engine: real recorded
// proofs (solver runs over random and pigeonhole UNSAT formulas) are checked
// by the old-behavior counting engine and the new incremental watched engine
// across pv1/pv2 × sequential/parallel, and sequential runs also under
// checkpoint-resume. The sequential
// watched engine runs twice: without hints it propagates core-first, with
// hints in input order. Verdicts must agree across all of them; cores and
// UsedProof bitmaps depend on the propagation order (conflict-clause
// identity does), so each run's core/trimmed proof is instead checked for
// validity — the trimmed formula plus the marked trace clauses must
// re-verify on their own — and for run-to-run determinism.

func diffInstances() []gen.Instance {
	return []gen.Instance{
		gen.RandUnsat(1, 14),
		gen.RandUnsat(7, 16),
		gen.PHP(4),
	}
}

func solveTrace(t *testing.T, inst gen.Instance) *proof.Trace {
	t.Helper()
	st, tr, _, _, err := solver.Solve(inst.F, solver.Options{MaxConflicts: 500_000})
	if err != nil {
		t.Fatalf("%s: %v", inst.Name, err)
	}
	if st != solver.Unsat {
		t.Fatalf("%s: solver returned %v", inst.Name, st)
	}
	return tr
}

func cloneTrace(tr *proof.Trace) *proof.Trace {
	out := proof.New()
	out.Resolutions = tr.Resolutions
	for _, c := range tr.Clauses {
		out.Clauses = append(out.Clauses, c.Clone())
	}
	return out
}

type diffCfg struct {
	mode    Mode
	workers int // 0: sequential
	every   int // checkpoint interval, sequential only; 0: disabled
}

func (c diffCfg) String() string {
	runner := "seq"
	if c.workers > 0 {
		runner = fmt.Sprintf("par%d", c.workers)
	}
	return fmt.Sprintf("%v-%s-ck%d", c.mode, runner, c.every)
}

func diffRun(t *testing.T, f *cnf.Formula, tr *proof.Trace, cfg diffCfg, engine EngineKind) *Result {
	t.Helper()
	return diffRunOpts(t, f, tr, cfg, Options{Mode: cfg.mode, Engine: engine})
}

// diffRunHinted is diffRun on the watched engine recording LRAT hints, which
// keeps input order. Sequential configurations only.
func diffRunHinted(t *testing.T, f *cnf.Formula, tr *proof.Trace, cfg diffCfg) *Result {
	t.Helper()
	return diffRunOpts(t, f, tr, cfg, Options{Mode: cfg.mode, Hints: new(lrat.Recorder)})
}

func diffRunOpts(t *testing.T, f *cnf.Formula, tr *proof.Trace, cfg diffCfg, opt Options) *Result {
	t.Helper()
	if cfg.every > 0 {
		opt.Checkpoint = CheckpointConfig{Every: cfg.every}
	}
	var res *Result
	var err error
	if cfg.workers > 0 {
		res, err = VerifyParallelOpts(f, tr, opt, cfg.workers)
	} else {
		res, err = Verify(f, tr, opt)
	}
	if err != nil {
		t.Fatalf("%v/%v: %v", cfg, opt.Engine, err)
	}
	return res
}

// verdict is the engine-independent slice of a Result: whether the proof was
// accepted and where it failed. Tested/core/marks legitimately differ
// between engines.
func verdict(res *Result) string {
	return fmt.Sprintf("ok=%v failed=%d term=%v", res.OK, res.FailedIndex, res.Termination)
}

// checkTrimmedReverifies asserts the validity of a marked-mode result: the
// core clauses plus the UsedProof-marked trace clauses must form a
// self-contained refutation (every marked clause is RUP against core +
// earlier marked clauses — the paper's §4 trimming argument).
func checkTrimmedReverifies(t *testing.T, f *cnf.Formula, tr *proof.Trace, res *Result, label string) {
	t.Helper()
	if !res.OK {
		t.Fatalf("%s: proof rejected (failed=%d)", label, res.FailedIndex)
	}
	if len(res.Core) == 0 || len(res.UsedProof) != len(tr.Clauses) {
		t.Fatalf("%s: core=%d used=%d/%d", label, len(res.Core), len(res.UsedProof), len(tr.Clauses))
	}
	f2 := cnf.NewFormula(f.NumVars)
	for _, i := range res.Core {
		f2.AddClause(f.Clauses[i].Clone())
	}
	tr2 := proof.New()
	tr2.Resolutions = nil
	for i, c := range tr.Clauses {
		if res.UsedProof[i] {
			tr2.Clauses = append(tr2.Clauses, c.Clone())
		}
	}
	res2, err := Verify(f2, tr2, Options{Mode: ModeCheckAll})
	if err != nil {
		t.Fatalf("%s: trimmed re-verification: %v", label, err)
	}
	if !res2.OK {
		t.Fatalf("%s: trimmed proof rejected at %d — core/UsedProof invalid", label, res2.FailedIndex)
	}
}

func TestDifferentialEnginesAgree(t *testing.T) {
	cfgs := []diffCfg{
		{ModeCheckMarked, 0, 0},
		{ModeCheckAll, 0, 0},
		{ModeCheckMarked, 3, 0},
		{ModeCheckAll, 3, 0},
		{ModeCheckMarked, 0, 5},
		{ModeCheckAll, 0, 5},
	}
	for _, inst := range diffInstances() {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			tr := solveTrace(t, inst)
			for _, cfg := range cfgs {
				watched := diffRun(t, inst.F, tr, cfg, EngineWatched)
				counting := diffRun(t, inst.F, tr, cfg, EngineCounting)
				if vw, vc := verdict(watched), verdict(counting); vw != vc {
					t.Errorf("%v: watched %q vs counting %q", cfg, vw, vc)
				}
				if cfg.workers == 0 {
					hinted := diffRunHinted(t, inst.F, tr, cfg)
					if vw, vh := verdict(watched), verdict(hinted); vw != vh {
						t.Errorf("%v: core-first watched %q vs hinted watched %q", cfg, vw, vh)
					}
				}
				if !watched.OK {
					t.Errorf("%v: valid proof rejected at %d", cfg, watched.FailedIndex)
				}
				// Each engine must be deterministic run-to-run, including
				// its core and marks.
				again := diffRun(t, inst.F, tr, cfg, EngineWatched)
				if a, b := resultFingerprint(watched), resultFingerprint(again); a != b {
					t.Errorf("%v: watched engine not deterministic:\n%s\n%s", cfg, a, b)
				}
			}

			// Core and trimmed-proof validity, per engine (sequential
			// marked mode is what extracts them).
			for _, engine := range []EngineKind{EngineWatched, EngineCounting} {
				res := diffRun(t, inst.F, tr, diffCfg{ModeCheckMarked, 0, 0}, engine)
				checkTrimmedReverifies(t, inst.F, tr, res, fmt.Sprintf("%s/%v", inst.Name, engine))
			}
			res := diffRunHinted(t, inst.F, tr, diffCfg{ModeCheckMarked, 0, 0})
			checkTrimmedReverifies(t, inst.F, tr, res, inst.Name+"/hinted")
		})
	}
}

// TestDifferentialCheckpointResume: for every engine and both modes, a run
// resumed from any checkpoint record must reproduce the uninterrupted
// checkpointed run byte-for-byte (full fingerprint, not just the verdict).
// Neither run records hints, so the watched engine propagates core-first
// and each resume rebuilds its core lists from the marked bitmap.
func TestDifferentialCheckpointResume(t *testing.T) {
	type input struct {
		inst  gen.Instance
		tr    *proof.Trace
		every int
	}
	var inputs []input
	for _, in := range []input{{inst: gen.RandUnsat(3, 14), every: 4}, {inst: gen.PHP(5), every: 20}} {
		in.tr = solveTrace(t, in.inst)
		inputs = append(inputs, in)
	}
	for _, engine := range []EngineKind{EngineWatched, EngineCounting} {
		for _, mode := range []Mode{ModeCheckMarked, ModeCheckAll} {
			t.Run(fmt.Sprintf("%v-%v", engine, mode), func(t *testing.T) {
				for _, in := range inputs {
					t.Run(in.inst.Name, func(t *testing.T) {
						testResumeFromEveryRecord(t, in.inst.F, in.tr, Options{Mode: mode, Engine: engine}, in.every)
					})
				}
			})
		}
	}
}

// testResumeFromEveryRecord runs opt with checkpoints every every clauses,
// then resumes from each record it wrote and demands the same result.
func testResumeFromEveryRecord(t *testing.T, f *cnf.Formula, tr *proof.Trace, opt Options, every int) {
	t.Helper()
	var records [][]byte
	optA := opt
	optA.Checkpoint = CheckpointConfig{Every: every, Sink: func(p []byte) error {
		records = append(records, append([]byte(nil), p...))
		return nil
	}}
	resA, err := Verify(f, tr, optA)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no checkpoint records emitted")
	}
	for _, rec := range records {
		if rec[0] != checkpointVersionSeq {
			t.Fatalf("unhinted sequential record has version %d, want %d", rec[0], checkpointVersionSeq)
		}
		cp, err := DecodeCheckpoint(rec)
		if err != nil {
			t.Fatal(err)
		}
		optB := opt
		optB.Checkpoint = CheckpointConfig{Every: every, Resume: cp}
		resB, err := Verify(f, tr, optB)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := resultFingerprint(resA), resultFingerprint(resB); a != b {
			t.Fatalf("resume diverged:\nuninterrupted %s\nresumed       %s", a, b)
		}
	}
}

// TestDifferentialCorruptedProof: on a proof with one corrupted clause the
// engines must agree under ModeCheckAll (which checks every clause, so the
// failure point is engine-independent). ModeCheckMarked results must at
// least be deterministic per engine.
func TestDifferentialCorruptedProof(t *testing.T) {
	inst := gen.RandUnsat(5, 14)
	tr := solveTrace(t, inst)
	if len(tr.Clauses) < 3 {
		t.Skipf("trace too short (%d) to corrupt meaningfully", len(tr.Clauses))
	}
	bad := cloneTrace(tr)
	mid := len(bad.Clauses) / 3
	for len(bad.Clauses[mid]) == 0 {
		mid++
	}
	bad.Clauses[mid][0] = bad.Clauses[mid][0].Neg()

	for _, cfg := range []diffCfg{{ModeCheckAll, 0, 0}, {ModeCheckAll, 3, 0}, {ModeCheckAll, 0, 5}} {
		watched := diffRun(t, inst.F, bad, cfg, EngineWatched)
		counting := diffRun(t, inst.F, bad, cfg, EngineCounting)
		if vw, vc := verdict(watched), verdict(counting); vw != vc {
			t.Errorf("%v: watched %q vs counting %q", cfg, vw, vc)
		}
		if cfg.workers == 0 {
			if vw, vh := verdict(watched), verdict(diffRunHinted(t, inst.F, bad, cfg)); vw != vh {
				t.Errorf("%v: core-first watched %q vs hinted watched %q", cfg, vw, vh)
			}
		}
	}
	for _, engine := range []EngineKind{EngineWatched, EngineCounting} {
		a := diffRun(t, inst.F, bad, diffCfg{ModeCheckMarked, 0, 0}, engine)
		b := diffRun(t, inst.F, bad, diffCfg{ModeCheckMarked, 0, 0}, engine)
		if fa, fb := resultFingerprint(a), resultFingerprint(b); fa != fb {
			t.Errorf("%v: nondeterministic on corrupted proof:\n%s\n%s", engine, fa, fb)
		}
	}
}

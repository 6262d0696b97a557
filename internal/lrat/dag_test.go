package lrat

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sched"
)

func TestCheckDAGMatchesSequential(t *testing.T) {
	f, p := longChain(800)
	seq, err := Check(f, p, Options{})
	if err != nil || !seq.OK {
		t.Fatalf("sequential: %+v, %v", seq, err)
	}
	for _, workers := range []int{2, 4, 8} {
		dag, err := Check(f, p, Options{Workers: workers, Strategy: sched.StrategyDAG})
		if err != nil {
			t.Fatal(err)
		}
		if !dag.OK || !dag.Refuted || dag.HintsScanned != seq.HintsScanned ||
			dag.Additions != seq.Additions || dag.Deletions != seq.Deletions {
			t.Fatalf("workers=%d diverged: %+v vs %+v", workers, dag, seq)
		}
	}
}

func TestCheckDAGFirstFailureWins(t *testing.T) {
	f, p := longChain(800)
	p.Steps[120].Hints = []int64{1}
	p.Steps[600].Hints = []int64{1}
	res, err := Check(f, p, Options{Workers: 4, Strategy: sched.StrategyDAG})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.FailedStep != 120 {
		t.Fatalf("failed step %d, want 120 (%s)", res.FailedStep, res.Reason)
	}
}

func TestCheckDAGContextCancelled(t *testing.T) {
	f, p := longChain(5000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Check(f, p, Options{Workers: 4, Strategy: sched.StrategyDAG, Ctx: ctx})
	if err != context.Canceled {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if !res.Incomplete {
		t.Fatal("Incomplete not set")
	}
}

// corruptOne flips one random step's hints into something that cannot
// replay, and returns the step index.
func corruptOne(rng *rand.Rand, p *Proof) int {
	for {
		k := rng.Intn(len(p.Steps))
		if p.Steps[k].Del || len(p.Steps[k].Hints) < 2 {
			continue
		}
		p.Steps[k].Hints = p.Steps[k].Hints[:1]
		return k
	}
}

// Randomized differential: on randomly corrupted chains, the DAG and
// sequential modes must agree on the verdict and the failing step exactly.
func TestCheckDAGDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 40; round++ {
		n := 50 + rng.Intn(400)
		f, p := longChain(n)
		want := -1
		if rng.Intn(2) == 1 {
			want = corruptOne(rng, p)
		}
		workers := 2 + rng.Intn(6)
		seq, err := Check(f, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dag, err := Check(f, p, Options{Workers: workers, Strategy: sched.StrategyDAG})
		if err != nil {
			t.Fatal(err)
		}
		if seq.OK != dag.OK || seq.FailedStep != dag.FailedStep || seq.Reason != dag.Reason {
			t.Fatalf("round %d: sequential %+v vs dag %+v", round, seq, dag)
		}
		if want >= 0 && (dag.OK || dag.FailedStep != want) {
			t.Fatalf("round %d: corrupted step %d, dag reported %d (ok=%v)",
				round, want, dag.FailedStep, dag.OK)
		}
		if want < 0 && !dag.OK {
			t.Fatalf("round %d: clean proof rejected at %d: %s", round, dag.FailedStep, dag.Reason)
		}
	}
}

// buildTestChecker runs the structural pass and fails the test on a
// rejection.
func buildTestChecker(t *testing.T, f *cnf.Formula, p *Proof) *checker {
	t.Helper()
	ck, rej := buildChecker(f, p)
	if rej != nil {
		t.Fatalf("structural rejection at step %d: %s", rej.step, rej.reason)
	}
	return ck
}

// The chain proof's DAG is one long dependency path: each derived unit
// hints the previous derived unit, so depth tracks the additions and the
// deletionless chain admits no parallelism (crit == total over additions).
func TestHintDAGShape(t *testing.T) {
	f, p := longChain(100)
	st := hintDAG(p, buildTestChecker(t, f, p)).Stats()
	if st.Tasks != 100 || st.Depth != 100 || st.MaxWidth != 1 {
		t.Fatalf("chain DAG stats = %+v", st)
	}
	// Each step cites the previous one exactly once (the other hint is a
	// formula clause, which contributes no edge).
	if st.Edges != 99 || st.Roots != 1 {
		t.Fatalf("chain DAG edges/roots = %+v", st)
	}
}

func TestStepReplayOutOfOrder(t *testing.T) {
	f, p := longChain(50)
	ck := buildTestChecker(t, f, p)
	st := newStepChecker(ck)
	// Replay out of order on purpose: step replay only reads the immutable
	// table, so any order must succeed.
	for k := len(p.Steps) - 1; k >= 0; k-- {
		if p.Steps[k].Del {
			continue
		}
		if _, why := st.check(&p.Steps[k], ck.hintSlots[ck.hintOff[k]:ck.hintOff[k+1]]); why != "" {
			t.Fatalf("step %d: %s", k, why)
		}
	}
}

// BuildDAG (no formula) must agree with the checked DAG on shape for a
// well-formed proof, and tolerate dangling hints instead of rejecting.
func TestBuildDAGStandalone(t *testing.T) {
	f, p := longChain(60)
	a, b := hintDAG(p, buildTestChecker(t, f, p)).Stats(), BuildDAG(p).Stats()
	if a != b {
		t.Fatalf("checked DAG %+v vs standalone %+v", a, b)
	}
	p.Steps[10].Hints = append(p.Steps[10].Hints, 424242)
	st := BuildDAG(p).Stats()
	if st.Tasks != 60 {
		t.Fatalf("dangling hint broke standalone DAG: %+v", st)
	}
}

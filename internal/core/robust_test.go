package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/proof"
)

// longChain builds F = {x1, ¬x1∨x2, ..., ¬x_{n-1}∨x_n, ¬x_n} together with
// the valid proof [x_2], ..., [x_n], [¬x_n]: checking clause i propagates a
// prefix of the implication chain, so total verification work grows as n²
// — a cheap-to-build instance that is arbitrarily slow to verify, which is
// exactly what cancellation and budget tests need.
func longChain(n int) (*cnf.Formula, *proof.Trace) {
	f := cnf.NewFormula(n)
	f.Clauses = append(f.Clauses, cl(1))
	for i := 1; i < n; i++ {
		f.Clauses = append(f.Clauses, cl(-i, i+1))
	}
	f.Clauses = append(f.Clauses, cl(-n))
	tr := proof.New()
	tr.Resolutions = nil
	for i := 2; i <= n; i++ {
		tr.Clauses = append(tr.Clauses, cl(i))
	}
	tr.Clauses = append(tr.Clauses, cl(-n))
	return f, tr
}

func TestLongChainIsValid(t *testing.T) {
	f, tr := longChain(50)
	for _, opt := range allModes() {
		res, err := Verify(f, tr, opt)
		if err != nil || !res.OK {
			t.Fatalf("%v/%v: err=%v res=%+v", opt.Mode, opt.Engine, err, res)
		}
	}
	res, err := VerifyParallelOpts(f, tr, Options{}, 4)
	if err != nil || !res.OK {
		t.Fatalf("parallel: err=%v res=%+v", err, res)
	}
}

func TestVerifyPreCancelled(t *testing.T) {
	f, tr := longChain(50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := obs.New()
	res, err := Verify(f, tr, Options{Ctx: ctx, Obs: reg})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res == nil || !res.Incomplete {
		t.Fatalf("want incomplete partial result, got %+v", res)
	}
	if got := reg.Counter("verify.cancelled").Value(); got != 1 {
		t.Fatalf("verify.cancelled = %d", got)
	}
}

func TestVerifyExpiredDeadline(t *testing.T) {
	f, tr := longChain(50)
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	res, err := Verify(f, tr, Options{Ctx: ctx})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if res == nil || !res.Incomplete || res.StoppedAt < 0 {
		t.Fatalf("want incomplete partial result with StoppedAt, got %+v", res)
	}
}

func TestVerifyPropagationBudget(t *testing.T) {
	for _, engine := range []EngineKind{EngineWatched, EngineCounting} {
		f, tr := longChain(400)
		reg := obs.New()
		res, err := Verify(f, tr, Options{
			Engine: engine,
			Obs:    reg,
			Budget: Budget{MaxPropagations: 500},
		})
		var be *BudgetError
		if !errors.As(err, &be) || !errors.Is(err, ErrBudget) {
			t.Fatalf("%v: err = %v, want *BudgetError", engine, err)
		}
		if be.Resource != "propagations" {
			t.Fatalf("%v: resource = %q", engine, be.Resource)
		}
		if !res.Incomplete {
			t.Fatalf("%v: result not marked incomplete: %+v", engine, res)
		}
		if got := reg.Counter("verify.budget_exceeded").Value(); got != 1 {
			t.Fatalf("%v: verify.budget_exceeded = %d", engine, got)
		}
	}
}

func TestVerifyTraceAndMemoryBudgets(t *testing.T) {
	f, tr := longChain(100)
	if _, err := Verify(f, tr, Options{Budget: Budget{MaxTraceClauses: 5}}); !errors.Is(err, ErrBudget) {
		t.Fatalf("trace-clause budget: err = %v", err)
	}
	if _, err := Verify(f, tr, Options{Budget: Budget{MaxMemoryBytes: 64}}); !errors.Is(err, ErrBudget) {
		t.Fatalf("memory budget: err = %v", err)
	}
	// Generous budgets never trip.
	res, err := Verify(f, tr, Options{Budget: Budget{
		MaxPropagations: 1 << 40, MaxTraceClauses: 1 << 30, MaxMemoryBytes: 1 << 40,
	}})
	if err != nil || !res.OK {
		t.Fatalf("generous budgets: err=%v res=%+v", err, res)
	}
}

func TestVerifyParallelBudget(t *testing.T) {
	f, tr := longChain(600)
	res, err := VerifyParallelOpts(f, tr, Options{Budget: Budget{MaxPropagations: 500}}, 4)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if res == nil || !res.Incomplete {
		t.Fatalf("want incomplete partial result, got %+v", res)
	}
}

// TestVerifyParallelCancelLatency cancels a parallel verification mid-run
// and requires the call to return ErrCancelled well within the 100ms bound
// the robustness contract promises.
func TestVerifyParallelCancelLatency(t *testing.T) {
	f, tr := longChain(4000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.New()

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := VerifyParallelOpts(f, tr, Options{Ctx: ctx, Obs: reg}, 4)
		done <- outcome{res, err}
	}()

	// Wait until the workers are demonstrably checking clauses, then pull
	// the plug.
	checked := reg.Counter("verify.checked")
	for deadline := time.Now().Add(5 * time.Second); checked.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("workers never started checking")
		}
		time.Sleep(100 * time.Microsecond)
	}
	start := time.Now()
	cancel()
	out := <-done
	latency := time.Since(start)

	if out.err == nil {
		t.Skip("verification finished before cancellation took effect")
	}
	if !errors.Is(out.err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", out.err)
	}
	if out.res == nil || !out.res.Incomplete {
		t.Fatalf("want incomplete partial result, got %+v", out.res)
	}
	if latency > 100*time.Millisecond {
		t.Fatalf("cancellation latency %v exceeds 100ms", latency)
	}
}

func TestParallelWorkerPanicIsRecoveredAndRetried(t *testing.T) {
	defer func() { parallelChunkHook = nil }()
	f, tr := longChain(200)

	// Panic on worker 1's first attempt only: the retry on the fallback
	// engine must rescue the chunk and the overall run.
	parallelChunkHook = func(worker, lo, hi, attempt int) {
		if worker == 1 && attempt == 0 {
			panic("injected: watched engine corrupted")
		}
	}
	reg := obs.New()
	res, err := VerifyParallelOpts(f, tr, Options{Obs: reg}, 4)
	if err != nil || !res.OK {
		t.Fatalf("run with one panicked attempt: err=%v res=%+v", err, res)
	}
	if res.Tested != tr.Len() {
		t.Fatalf("tested %d of %d clauses", res.Tested, tr.Len())
	}
	if got := reg.Counter("verify.worker_panics").Value(); got != 1 {
		t.Fatalf("verify.worker_panics = %d", got)
	}
	if got := reg.Counter("verify.chunk_retries").Value(); got != 1 {
		t.Fatalf("verify.chunk_retries = %d", got)
	}
}

func TestParallelWorkerPanicExhaustsRetriesAndNamesChunk(t *testing.T) {
	defer func() { parallelChunkHook = nil }()
	f, tr := longChain(200)

	parallelChunkHook = func(worker, lo, hi, attempt int) {
		if worker == 1 {
			panic("injected: both engines corrupted")
		}
	}
	reg := obs.New()
	res, err := VerifyParallelOpts(f, tr, Options{Obs: reg}, 4)
	var wp *WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("err = %v, want *WorkerPanicError", err)
	}
	if wp.Worker != 1 || wp.Lo >= wp.Hi || wp.Attempts != 2 {
		t.Fatalf("panic attribution: %+v", wp)
	}
	if !strings.Contains(wp.Error(), "worker 1") || !strings.Contains(wp.Error(), "chunk") {
		t.Fatalf("error does not name the chunk: %v", wp)
	}
	if len(wp.Stack) == 0 {
		t.Fatal("panic error carries no stack")
	}
	if res == nil || !res.Incomplete {
		t.Fatalf("want incomplete partial result, got %+v", res)
	}
	if got := reg.Counter("verify.worker_panics").Value(); got != 2 {
		t.Fatalf("verify.worker_panics = %d", got)
	}
}

func TestEstimateVerifyBytesScales(t *testing.T) {
	fSmall, trSmall := longChain(10)
	fBig, trBig := longChain(1000)
	small := EstimateVerifyBytes(fSmall, trSmall)
	big := EstimateVerifyBytes(fBig, trBig)
	if small <= 0 || big <= small {
		t.Fatalf("estimates: small=%d big=%d", small, big)
	}
}

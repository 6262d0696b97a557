package core

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/lrat"
	"repro/internal/solver"
)

// TestCheckpointedVerifyAllocatesLikeUnchecked bounds what dpvd's
// checkpoint grid costs in memory. At the daemon's interval (1000), a
// hinted Verify whose sink receives every payload must allocate at most
// 1.25 times what the same hinted Verify allocates without checkpoints:
// epoch boundaries reset the engine in place, a record copies the
// recorder's encoding as it stands, and hinted conflicts reuse their
// scratch.
func TestCheckpointedVerifyAllocatesLikeUnchecked(t *testing.T) {
	// The proof dpvd-mixed verifies: perfbench solves its inputs with
	// these options.
	inst := gen.PHPPinned(7, 40)
	st, tr, _, _, err := solver.Solve(inst.F, solver.Options{
		Learn:        solver.LearnHybrid,
		Heuristic:    solver.HeurBerkMin,
		MaxConflicts: 500_000,
	})
	if err != nil || st != solver.Unsat {
		t.Fatalf("solve: %v %v", st, err)
	}
	alloc := func(ck CheckpointConfig) uint64 {
		t.Helper()
		var rec lrat.Recorder
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Verify(inst.F, tr, Options{Hints: &rec, Checkpoint: ck})
		runtime.ReadMemStats(&after)
		if err != nil || !res.OK {
			t.Fatalf("verify (checkpoint every %d): res=%+v err=%v", ck.Every, res, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	plain := alloc(CheckpointConfig{})
	payloads, payloadBytes := 0, 0
	ckpt := alloc(CheckpointConfig{Every: 1000, Sink: func(p []byte) error {
		payloads++
		payloadBytes += len(p)
		return nil
	}})
	t.Logf("%d clauses, %d payloads of %d bytes: %d bytes allocated with checkpoints, %d without (%.2fx)",
		len(tr.Clauses), payloads, payloadBytes, ckpt, plain, float64(ckpt)/float64(plain))
	if payloads == 0 {
		t.Fatalf("no checkpoint was written for a %d-clause trace", len(tr.Clauses))
	}
	if float64(ckpt) > 1.25*float64(plain) {
		t.Errorf("checkpointed verify allocated %d bytes, over 1.25x the %d of an unchecked one",
			ckpt, plain)
	}
}

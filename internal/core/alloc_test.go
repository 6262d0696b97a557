package core

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/lrat"
	"repro/internal/proof"
	"repro/internal/solver"
)

// dpvdProof returns php_7_pin40 and the proof of it that dpvd-mixed
// verifies: perfbench solves its inputs with these options.
func dpvdProof(t *testing.T) (gen.Instance, *proof.Trace) {
	t.Helper()
	inst := gen.PHPPinned(7, 40)
	st, tr, _, _, err := solver.Solve(inst.F, solver.Options{
		Learn:        solver.LearnHybrid,
		Heuristic:    solver.HeurBerkMin,
		MaxConflicts: 500_000,
	})
	if err != nil || st != solver.Unsat {
		t.Fatalf("solve: %v %v", st, err)
	}
	return inst, tr
}

// TestCheckpointedVerifyAllocatesLikeUnchecked bounds what dpvd's
// checkpoint grid costs in memory. At the daemon's interval (1000), a
// hinted Verify whose sink receives every payload must allocate at most
// 1.20 times what the same hinted Verify allocates without checkpoints
// (1.15 measured): epoch boundaries reset the engine in place, every
// record is encoded into one reused buffer that copies the recorder's
// encoding as it stands, and hinted conflicts reuse their scratch.
func TestCheckpointedVerifyAllocatesLikeUnchecked(t *testing.T) {
	inst, tr := dpvdProof(t)
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
	if float64(ckpt) > 1.20*float64(plain) {
		t.Errorf("checkpointed verify allocated %d bytes, over 1.20x the %d of an unchecked one",
			ckpt, plain)
	}
}

// TestRenderedHintsAllocateLikeOutput bounds what storing a verified dpvd
// job's hints costs: rendering the recorder's text LRAT (Recorder.Text)
// allocates at most 1.1 times the bytes it returns. The text buffer is
// sized exactly; the rest is the per-step index and one step's scratch,
// with no decoded proof and no sorted copy.
func TestRenderedHintsAllocateLikeOutput(t *testing.T) {
	inst, tr := dpvdProof(t)
	var rec lrat.Recorder
	if res, err := Verify(inst.F, tr, Options{Hints: &rec}); err != nil || !res.OK {
		t.Fatalf("verify: res=%+v err=%v", res, err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	text, err := rec.Text()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d steps: %d bytes of text, %d bytes allocated (%.3fx)",
		rec.Len(), len(text), alloc, float64(alloc)/float64(len(text)))
	if float64(alloc) > 1.1*float64(len(text)) {
		t.Errorf("rendering allocated %d bytes, over 1.1x its %d-byte output", alloc, len(text))
	}
}

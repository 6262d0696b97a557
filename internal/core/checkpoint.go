package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bcp"
)

// Checkpoint support for Verify and VerifyParallelOpts: every
// CheckpointConfig.Every processed proof clauses the verifier serializes
// its resumable state — the loop boundary, the marked-clause bitmap
// (sequential modes) or the per-worker progress (parallel), and the
// cumulative work counters — and hands it to the configured sink, which is
// typically an internal/journal writer.
//
// # Determinism across a crash
//
// The acceptance bar is that an interrupted-then-resumed run produces a
// byte-identical core and identical counters to an uninterrupted run. The
// subtlety is that the BCP engines are history-dependent: the watched
// engine permutes its watch lists as Refutes run, so a fresh engine resumed
// at clause i is NOT in the same state as an engine that checked its way
// down to i, and conflict analysis (hence marking, hence the core) can
// diverge. The fix is to make checkpoint boundaries canonical: whenever
// checkpointing is enabled, the verifier REBUILDS its engine from scratch
// at every boundary (formula plus the still-active trace prefix, in input
// order). An uninterrupted checkpointed run and a resumed run therefore
// pass through identical engine states at every boundary, and everything
// downstream — conflicts, marks, core, counters — is identical by
// construction. Cumulative bcp statistics survive rebuilds in a statsBase
// accumulator that the checkpoint carries.
//
// Non-checkpointed runs never rebuild and are byte-for-byte unchanged.
//
// The incremental watched engine (persistent root trail, DESIGN.md §6b)
// adds engine state that outlives a single Refute, but it needs no special
// handling here: a rebuilt engine's entire state — arena, watch order, root
// trail — is a pure function of the canonical Add/Deactivate sequence, so
// the rebuild grid above still pins down every downstream byte. The replay
// test in internal/bcp (TestIncrementalDeterministicReplay) and the
// kill/resume differential tests keep this honest.

// CheckpointConfig enables durable progress records. The zero value
// disables checkpointing entirely.
type CheckpointConfig struct {
	// Every is the checkpoint interval in processed proof clauses (per
	// worker in parallel mode). Zero disables checkpointing; negative is
	// invalid.
	Every int
	// Sink receives each encoded checkpoint record. It must make the
	// record durable before returning (internal/journal.Writer.Append
	// does). A nil Sink with Every > 0 still establishes the canonical
	// rebuild grid — that is how a resume-only run (no new journal) stays
	// deterministic.
	Sink func(payload []byte) error
	// Resume, when non-nil, restarts verification from a decoded
	// checkpoint instead of the beginning. The caller is responsible for
	// validating it against this run (ValidateFor) and for only passing
	// checkpoints recovered from a journal whose metadata matched.
	Resume *Checkpoint
}

func (c *CheckpointConfig) enabled() bool { return c != nil && c.Every > 0 }

// ErrBadCheckpoint wraps resume states that do not fit the run they are
// offered to. CLI callers validate upfront and fall back to a full run;
// seeing this error out of Verify means a caller skipped validation.
var ErrBadCheckpoint = errors.New("core: checkpoint does not match this verification")

// WorkerState is one parallel worker's durable progress: the next trace
// index its chunk loop will process (one below the last processed index;
// may be lo-1 i.e. "chunk done"), its tally so far, and the bcp statistics
// its engines accumulated.
type WorkerState struct {
	Next        int
	Tested      int
	Tautologies int
	Stats       bcp.Stats
}

// Checkpoint is the decoded resumable state of a verification run.
type Checkpoint struct {
	// Par distinguishes parallel (per-worker) from sequential state.
	Par bool

	// Sequential state: the loop index to resume at (the paper's backward
	// scan processes m-1 down to 0), the marked bitmap over nf+m clause
	// slots, and the counters accumulated so far.
	NextIndex   int
	Marked      []bool
	Tested      int
	Skipped     int
	Tautologies int
	Stats       bcp.Stats

	// Parallel state: one entry per worker.
	Workers []WorkerState

	// Hints is the serialized lrat.Recorder state at the boundary (nil when
	// the run is not recording hints). Sequential checkpoints only.
	Hints []byte
}

// Payload versions. Version 3 (the phase-2 record of a retired two-phase
// DAG-scheduled pipeline) is no longer written or accepted.
const (
	checkpointVersion = 1
	// checkpointVersionHints appends the hint-recorder blob after the marked
	// bitmap. Emitted only when a recorder is attached, so non-recording runs
	// keep producing byte-identical version-1 payloads.
	checkpointVersionHints = 2
)

func appendStats(b []byte, s bcp.Stats) []byte {
	for _, v := range []int64{s.Propagations, s.Refutations, s.Conflicts, s.WatcherVisits, s.OccTouches} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func readStats(b []byte) (bcp.Stats, []byte) {
	var s bcp.Stats
	for _, p := range []*int64{&s.Propagations, &s.Refutations, &s.Conflicts, &s.WatcherVisits, &s.OccTouches} {
		*p = int64(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	return s, b
}

func addStats(a, b bcp.Stats) bcp.Stats {
	return bcp.Stats{
		Propagations:  a.Propagations + b.Propagations,
		Refutations:   a.Refutations + b.Refutations,
		Conflicts:     a.Conflicts + b.Conflicts,
		WatcherVisits: a.WatcherVisits + b.WatcherVisits,
		OccTouches:    a.OccTouches + b.OccTouches,
	}
}

func subStats(a, b bcp.Stats) bcp.Stats {
	return bcp.Stats{
		Propagations:  a.Propagations - b.Propagations,
		Refutations:   a.Refutations - b.Refutations,
		Conflicts:     a.Conflicts - b.Conflicts,
		WatcherVisits: a.WatcherVisits - b.WatcherVisits,
		OccTouches:    a.OccTouches - b.OccTouches,
	}
}

// Encode serializes the checkpoint (version byte, fixed-width
// little-endian integers, packed bitmap).
func (cp *Checkpoint) Encode() []byte {
	ver := byte(checkpointVersion)
	if cp.Hints != nil && !cp.Par {
		ver = checkpointVersionHints
	}
	b := []byte{ver}
	if cp.Par {
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(cp.Workers)))
		for _, w := range cp.Workers {
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(w.Next)))
			b = binary.LittleEndian.AppendUint64(b, uint64(w.Tested))
			b = binary.LittleEndian.AppendUint64(b, uint64(w.Tautologies))
			b = appendStats(b, w.Stats)
		}
		return b
	}
	b = append(b, 0)
	for _, v := range []int64{int64(cp.NextIndex), int64(cp.Tested), int64(cp.Skipped), int64(cp.Tautologies)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = appendStats(b, cp.Stats)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(cp.Marked)))
	bm := make([]byte, (len(cp.Marked)+7)/8)
	for i, m := range cp.Marked {
		if m {
			bm[i/8] |= 1 << (i % 8)
		}
	}
	b = append(b, bm...)
	if ver == checkpointVersionHints {
		b = append(b, cp.Hints...)
	}
	return b
}

// DecodeCheckpoint parses an encoded checkpoint payload. It validates only
// internal consistency; use ValidateFor to check the state against a
// concrete run.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	fail := func(what string) (*Checkpoint, error) {
		return nil, fmt.Errorf("%w: %s", ErrBadCheckpoint, what)
	}
	if len(b) < 2 {
		return fail("payload too short")
	}
	ver := b[0]
	if ver != checkpointVersion && ver != checkpointVersionHints {
		return fail(fmt.Sprintf("payload version %d, want %d..%d", ver, checkpointVersion, checkpointVersionHints))
	}
	par := b[1] == 1
	if par && ver != checkpointVersion {
		return fail("hint-recorder payload with parallel flag")
	}
	b = b[2:]
	cp := &Checkpoint{Par: par}
	need := func(n int) bool { return len(b) >= n }
	if par {
		if !need(8) {
			return fail("truncated worker count")
		}
		n := int(binary.LittleEndian.Uint64(b))
		b = b[8:]
		if n < 0 || n > 1<<20 || !need(n*(3*8+5*8)) {
			return fail("truncated worker states")
		}
		cp.Workers = make([]WorkerState, n)
		for i := range cp.Workers {
			cp.Workers[i].Next = int(int64(binary.LittleEndian.Uint64(b)))
			cp.Workers[i].Tested = int(binary.LittleEndian.Uint64(b[8:]))
			cp.Workers[i].Tautologies = int(binary.LittleEndian.Uint64(b[16:]))
			cp.Workers[i].Stats, b = readStats(b[24:])
		}
		return cp, nil
	}
	if !need(4*8 + 5*8 + 8) {
		return fail("truncated sequential state")
	}
	cp.NextIndex = int(int64(binary.LittleEndian.Uint64(b)))
	cp.Tested = int(binary.LittleEndian.Uint64(b[8:]))
	cp.Skipped = int(binary.LittleEndian.Uint64(b[16:]))
	cp.Tautologies = int(binary.LittleEndian.Uint64(b[24:]))
	cp.Stats, b = readStats(b[32:])
	nBits := int(binary.LittleEndian.Uint64(b))
	b = b[8:]
	nbm := (nBits + 7) / 8
	if nBits < 0 || nBits > 1<<34 {
		return fail("bitmap length mismatch")
	}
	hinted := ver == checkpointVersionHints
	if hinted {
		if len(b) < nbm {
			return fail("bitmap length mismatch")
		}
	} else if len(b) != nbm {
		return fail("bitmap length mismatch")
	}
	cp.Marked = make([]bool, nBits)
	for i := range cp.Marked {
		cp.Marked[i] = b[i/8]&(1<<(i%8)) != 0
	}
	if hinted {
		// Everything after the bitmap is the serialized hint recorder; the
		// blob self-delimits (binary LRAT), so trailing length needs no frame.
		cp.Hints = append([]byte(nil), b[nbm:]...)
	}
	return cp, nil
}

// ValidateFor checks that the checkpoint could have been produced by a run
// over nf formula clauses and m proof clauses with the given parallelism
// (workers == 0 means sequential).
func (cp *Checkpoint) ValidateFor(nf, m, workers int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrBadCheckpoint}, args...)...)
	}
	if cp.Par != (workers > 0) {
		return fail("parallel flag %v does not match workers=%d", cp.Par, workers)
	}
	if cp.Par {
		if len(cp.Workers) != workers {
			return fail("%d worker states for %d workers", len(cp.Workers), workers)
		}
		chunk := (m + workers - 1) / workers
		for w, st := range cp.Workers {
			lo, hi := w*chunk, min((w+1)*chunk, m)
			if lo >= hi {
				// Empty chunk (workers does not divide m evenly); its slot
				// carries the "no work" sentinel m.
				if st.Next != m {
					return fail("worker %d has empty chunk but next index %d", w, st.Next)
				}
				continue
			}
			if st.Next < lo-1 || st.Next >= hi {
				return fail("worker %d next index %d outside chunk [%d,%d)", w, st.Next, lo, hi)
			}
		}
		return nil
	}
	if cp.NextIndex < 0 || cp.NextIndex >= m {
		return fail("next index %d outside trace of %d clauses", cp.NextIndex, m)
	}
	if len(cp.Marked) != nf+m {
		return fail("marked bitmap of %d bits for %d clause slots", len(cp.Marked), nf+m)
	}
	return nil
}

// markedCounts splits a marked bitmap's popcount into original-formula and
// proof-clause marks, for re-seeding the obs counters on resume.
func markedCounts(marked []bool, nf int) (orig, prf int64) {
	for i, m := range marked {
		if !m {
			continue
		}
		if i < nf {
			orig++
		} else {
			prf++
		}
	}
	return
}

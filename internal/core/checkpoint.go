package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/bcp"
	"repro/internal/lrat"
)

// Checkpoint support for Verify: every CheckpointConfig.Every processed
// proof clauses the verifier serializes its resumable state — the loop
// boundary, the marked-clause bitmap, the cumulative work counters and,
// on a run that records hints, the hint log — and hands it to the
// configured sink, which is typically an internal/journal writer.
// VerifyParallelOpts keeps no checkpoints.
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
// checkpointing is enabled, the sequential verifier RESETS its engine in
// place at every boundary and Adds the formula plus the still-active trace
// prefix in input order, as its first build did. The equality contract is
// that a reset engine (bcp's Reset) holds exactly what a new engine holds —
// no clause, no trail or root state, empty lists, zeroed counters — with
// only capacity surviving, so after the same Adds it holds what a new
// engine given them holds; the suspensions of a deletion schedule and, on
// runs without hints, the MarkCore marks are then re-applied in ID order,
// as after the first build. An uninterrupted checkpointed run and a
// resumed run, which builds its engine new at the same boundary, therefore
// pass through identical engine states at every boundary, and everything
// downstream — conflicts, marks, core, hints, counters — is identical by
// construction. Cumulative bcp statistics survive resets in a statsBase
// accumulator that the checkpoint carries.
//
// Non-checkpointed runs never reset and are byte-for-byte unchanged.
//
// The incremental watched engine (persistent root trail, DESIGN.md §6b)
// adds engine state that outlives a single Refute, but it needs no special
// handling here: Reset clears the root trail with the rest, so the grid
// above still pins down every downstream byte. TestResetMatchesFreshEngine
// in internal/bcp checks the equality contract after random histories,
// TestWorkGolden pins a checkpointed run's work and payload bytes, and the
// kill/resume differential tests keep the whole chain honest.

// CheckpointConfig enables durable progress records. The zero value
// disables checkpointing entirely.
type CheckpointConfig struct {
	// Every is the checkpoint interval in processed proof clauses. Zero
	// disables checkpointing; negative is invalid.
	Every int
	// Sink receives each encoded checkpoint record. It must make the
	// record durable before returning (the journal.Write sink that
	// StartJournal installs does). The payload is borrowed: it is valid
	// only until Sink returns, because Verify encodes the next record into
	// the same buffer, so a sink that keeps a record must copy it. A nil
	// Sink with Every > 0 still establishes the canonical epoch grid,
	// whose boundaries reset the engine — that is how a resume-only run
	// (no new journal) stays deterministic.
	Sink func(payload []byte) error
	// Resume, when non-nil, restarts verification from a decoded
	// checkpoint instead of the beginning. StartJournal sets it only to a
	// record from a journal whose metadata matched and that fits the run;
	// a Resume that does not fit fails the run with ErrBadCheckpoint.
	Resume *Checkpoint
}

func (c *CheckpointConfig) enabled() bool { return c != nil && c.Every > 0 }

// ErrBadCheckpoint wraps resume states that do not fit the run they are
// offered to. StartJournal refuses such a record with a warning and starts
// the run from scratch; seeing this error out of Verify means a caller set
// CheckpointConfig.Resume without StartJournal.
var ErrBadCheckpoint = errors.New("core: checkpoint does not match this verification")

// Checkpoint is the decoded resumable state of a verification run.
type Checkpoint struct {
	// The loop index to resume at (the paper's backward scan processes m-1
	// down to 0), the marked bitmap over nf+m clause slots, and the
	// counters accumulated so far.
	NextIndex   int
	Marked      []bool
	Tested      int
	Skipped     int
	Tautologies int
	Stats       bcp.Stats

	// Hints holds the steps recorded up to the boundary (nil when the run
	// is not recording hints). A resumed Verify records into a copy of it;
	// DecodeCheckpoint's recorder has no spare capacity, so the copy never
	// writes into the checkpoint's memory and one decoded checkpoint can
	// seed more than one run.
	Hints *lrat.Recorder
}

// Payload versions. Versions 1 and 3 are no longer written or accepted:
// version 1 was the per-worker state of a chunked parallel run and, before
// core-first propagation, the sequential payload of runs that propagated
// in input order; version 3 was the phase-2 record of a retired two-phase
// DAG-scheduled pipeline.
const (
	// checkpointVersionHints is the sequential payload of a run that records
	// hints: the version-4 layout plus the hint-recorder blob after the
	// marked bitmap. Such runs never propagate core-first.
	checkpointVersionHints = 2
	// checkpointVersionSeq is the sequential payload of a run that records
	// no hints; its watched engine propagates core-first.
	checkpointVersionSeq = 4
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

// Encode serializes the checkpoint (version byte, fixed-width
// little-endian integers, packed bitmap, then the hint recorder's encoding)
// into one buffer sized up front.
func (cp *Checkpoint) Encode() []byte { return cp.appendTo(nil) }

// encodedLen returns how many bytes Encode writes: the version and flag
// bytes, four counters, five bcp counters, the bitmap's length and bits,
// then the hint blob.
func (cp *Checkpoint) encodedLen() int {
	n := 2 + 4*8 + 5*8 + 8 + (len(cp.Marked)+7)/8
	if cp.Hints != nil {
		n += cp.Hints.EncodedLen()
	}
	return n
}

// appendTo appends Encode's bytes to b, growing it at most once. Verify
// encodes every epoch record into one buffer this way.
func (cp *Checkpoint) appendTo(b []byte) []byte {
	ver := byte(checkpointVersionSeq)
	if cp.Hints != nil {
		ver = checkpointVersionHints
	}
	nbm := (len(cp.Marked) + 7) / 8
	b = slices.Grow(b, cp.encodedLen())
	b = append(b, ver, 0)
	for _, v := range []int64{int64(cp.NextIndex), int64(cp.Tested), int64(cp.Skipped), int64(cp.Tautologies)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = appendStats(b, cp.Stats)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(cp.Marked)))
	b = append(b, make([]byte, nbm)...)
	bm := b[len(b)-nbm:]
	for i, m := range cp.Marked {
		if m {
			bm[i/8] |= 1 << (i % 8)
		}
	}
	if cp.Hints != nil {
		return cp.Hints.Encode(b)
	}
	return b
}

// DecodeCheckpoint parses an encoded checkpoint payload. It validates only
// internal consistency; whether the state fits a concrete run is decided
// when the run starts (see StartJournal). A hinted checkpoint's recorder
// keeps its part of b (see lrat.DecodeRecorder), so b must not change
// afterwards.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	fail := func(what string) (*Checkpoint, error) {
		return nil, fmt.Errorf("%w: %s", ErrBadCheckpoint, what)
	}
	if len(b) < 2 {
		return fail("payload too short")
	}
	ver := b[0]
	if ver != checkpointVersionHints && ver != checkpointVersionSeq {
		return fail(fmt.Sprintf("payload version %d, want %d or %d",
			ver, checkpointVersionHints, checkpointVersionSeq))
	}
	if b[1] != 0 {
		return fail(fmt.Sprintf("version-%d payload with flag byte %d", ver, b[1]))
	}
	b = b[2:]
	if len(b) < 4*8+5*8+8 {
		return fail("truncated state")
	}
	cp := &Checkpoint{}
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
		rec, err := lrat.DecodeRecorder(b[nbm:])
		if err != nil {
			return fail(fmt.Sprintf("hint recorder: %v", err))
		}
		cp.Hints = rec
	}
	return cp, nil
}

// fit is the one resume decision, made by Verify on CheckpointConfig.Resume
// and by StartJournal on a journal's last record. It reports why cp could
// not have been written by a run over nf formula and m proof clauses that
// records hints or not.
func (cp *Checkpoint) fit(nf, m int, hinted bool) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrBadCheckpoint}, args...)...)
	}
	switch {
	case cp.Hints != nil && !hinted:
		// A hinted run propagates in input order, this one core-first:
		// resuming would mix the two orders.
		return fail("checkpoint was recorded with hints")
	case cp.Hints == nil && hinted:
		// Byte-identical emission needs the steps recorded before the
		// crash; a checkpoint written without a recorder cannot provide
		// them, so refuse rather than emit a silently truncated proof.
		return fail("checkpoint carries no hint recorder")
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

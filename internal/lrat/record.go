package lrat

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/cnf"
)

// Recorder accumulates hinted steps as a verifier derives them. The backward
// checkers visit proof clauses in reverse chronological order, so steps
// arrive in descending ID order and Proof() sorts them; IDs are unique by
// construction (one per verified clause), which makes the sort — and the
// emitted bytes — deterministic.
//
// The recorder keeps its steps only as their binary encoding (WriteBinary's
// bytes, in record order), which is also what a checkpoint carries
// (Encode/DecodeRecorder): an interrupted-then-resumed run emits
// byte-identical LRAT because the checkpoint holds exactly the steps
// recorded up to the boundary, and the resumed run re-records everything
// after it from the same canonical engine state.
type Recorder struct {
	// enc holds the encoding after its header in pieces of encPiece bytes'
	// capacity. A full piece is never copied again, so recording costs only
	// the new step's bytes; one slice grown by append would allocate several
	// times the final encoding over a run.
	enc [][]byte
	n   int
}

// encPiece is the capacity of each piece of the encoding.
const encPiece = 64 << 10

// Record appends one addition step. The clause and hints are encoded, so the
// caller may reuse both buffers.
func (r *Recorder) Record(id int64, c cnf.Clause, hints []int64) {
	// A step longer than the room left grows its piece by append.
	if k := len(r.enc) - 1; k < 0 || cap(r.enc[k])-len(r.enc[k]) < encPiece/8 {
		r.enc = append(r.enc, make([]byte, 0, encPiece))
	}
	p := &r.enc[len(r.enc)-1]
	*p = appendBinaryStep(*p, &Step{ID: id, C: c, Hints: hints})
	r.n++
}

// Len reports how many steps have been recorded.
func (r *Recorder) Len() int { return r.n }

// recordedLimits lifts every reader limit: Proof reads back only bytes the
// recorder encoded itself, and returns whatever was recorded.
var recordedLimits = cnf.ParseLimits{MaxClauses: math.MaxInt, MaxClauseLen: math.MaxInt,
	MaxVars: math.MaxInt, MaxHints: math.MaxInt, MaxID: math.MaxInt64, MaxBytes: math.MaxInt64}

// Proof decodes the recorded steps and returns them sorted by ID as an
// emission-ready proof. Duplicate IDs mean the recorder was driven twice for
// the same clause — a caller bug, reported rather than silently emitted.
func (r *Recorder) Proof() (*Proof, error) {
	readers := []io.Reader{bytes.NewReader(appendBinaryHeader(nil))}
	for _, p := range r.enc {
		readers = append(readers, bytes.NewReader(p))
	}
	p, err := ReadBinaryLimited(io.MultiReader(readers...), recordedLimits)
	if err != nil {
		return nil, fmt.Errorf("lrat: recorded steps: %w", err)
	}
	steps := p.Steps
	sort.Slice(steps, func(i, j int) bool { return steps[i].ID < steps[j].ID })
	for i := 1; i < len(steps); i++ {
		if steps[i].ID == steps[i-1].ID {
			return nil, fmt.Errorf("lrat: duplicate recorded id %d", steps[i].ID)
		}
	}
	return p, nil
}

// Encode appends the recorder's binary encoding to dst and returns the
// extended slice: WriteBinary's bytes for the recorded steps, in record
// order, for embedding in a checkpoint payload.
func (r *Recorder) Encode(dst []byte) []byte {
	dst = appendBinaryHeader(dst)
	for _, p := range r.enc {
		dst = append(dst, p...)
	}
	return dst
}

// EncodedLen returns how many bytes Encode appends.
func (r *Recorder) EncodedLen() int {
	n := len(binaryMagic) + 2
	for _, p := range r.enc {
		n += len(p)
	}
	return n
}

// DecodeRecorder restores a recorder from Encode's output. Checkpoint
// payloads are CRC-framed by the journal, so limits stay at their defaults.
//
// The recorder keeps b after its header, which must not change afterwards,
// as its only piece, clipped to its length. A copy of the recorder that goes
// on recording therefore starts a new piece and never writes into b, so one
// decoded recorder can seed any number of runs.
func DecodeRecorder(b []byte) (*Recorder, error) {
	p, err := ReadBinary(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return &Recorder{enc: [][]byte{b[len(binaryMagic)+2 : len(b) : len(b)]}, n: len(p.Steps)}, nil
}

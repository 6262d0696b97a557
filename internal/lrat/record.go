package lrat

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/cnf"
)

// Recorder accumulates hinted steps as a verifier derives them. The backward
// checkers visit proof clauses in reverse chronological order, so steps
// arrive in descending ID order and Proof() sorts them; IDs are unique by
// construction (one per verified clause), which makes the sort — and the
// emitted bytes — deterministic.
//
// A Recorder rides inside checkpoints (Encode/DecodeRecorder) so an
// interrupted-then-resumed run emits byte-identical LRAT: the checkpoint
// carries exactly the steps recorded up to the boundary, and the resumed run
// re-records everything after it from the same canonical engine state.
type Recorder struct {
	steps []Step
	// enc holds the binary encoding of steps[:encoded] in pieces of
	// encPiece bytes' capacity. A full piece is never copied again, so
	// extending the encoding costs only the new steps' bytes; one slice
	// grown by append would allocate several times the final encoding over
	// a run.
	enc     [][]byte
	encoded int
}

// encPiece is the capacity of each piece of the kept encoding.
const encPiece = 64 << 10

// Record appends one addition step. The clause and hints are copied.
func (r *Recorder) Record(id int64, c cnf.Clause, hints []int64) {
	r.steps = append(r.steps, Step{
		ID:    id,
		C:     append(cnf.Clause(nil), c...),
		Hints: append([]int64(nil), hints...),
	})
}

// Len reports how many steps have been recorded.
func (r *Recorder) Len() int { return len(r.steps) }

// Proof returns the recorded steps sorted by ID as an emission-ready proof.
// Duplicate IDs mean the recorder was driven twice for the same clause — a
// caller bug, reported rather than silently emitted.
func (r *Recorder) Proof() (*Proof, error) {
	steps := append([]Step(nil), r.steps...)
	sort.Slice(steps, func(i, j int) bool { return steps[i].ID < steps[j].ID })
	for i := 1; i < len(steps); i++ {
		if steps[i].ID == steps[i-1].ID {
			return nil, fmt.Errorf("lrat: duplicate recorded id %d", steps[i].ID)
		}
	}
	return &Proof{Steps: steps}, nil
}

// Encode appends the recorder's binary encoding to dst and returns the
// extended slice: WriteBinary's bytes for the recorded steps, in record
// order, for embedding in a checkpoint payload. The recorder keeps what it
// has encoded, so each call encodes only the steps recorded since the
// previous one.
func (r *Recorder) Encode(dst []byte) []byte {
	r.encodeNew()
	for _, p := range r.enc {
		dst = append(dst, p...)
	}
	return dst
}

// EncodedLen returns how many bytes Encode appends.
func (r *Recorder) EncodedLen() int {
	r.encodeNew()
	n := 0
	for _, p := range r.enc {
		n += len(p)
	}
	return n
}

// encodeNew extends the kept encoding by the steps recorded since the last
// call.
func (r *Recorder) encodeNew() {
	if r.enc == nil {
		r.enc = [][]byte{appendBinaryHeader(make([]byte, 0, encPiece))}
	}
	for ; r.encoded < len(r.steps); r.encoded++ {
		if p := r.enc[len(r.enc)-1]; cap(p)-len(p) < encPiece/8 {
			// A step longer than the room left grows its piece by append.
			r.enc = append(r.enc, make([]byte, 0, encPiece))
		}
		p := &r.enc[len(r.enc)-1]
		*p = appendBinaryStep(*p, &r.steps[r.encoded])
	}
}

// DecodeRecorder restores a recorder from Encode's output. Checkpoint
// payloads are CRC-framed by the journal, so limits stay at their defaults.
func DecodeRecorder(b []byte) (*Recorder, error) {
	p, err := ReadBinary(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return &Recorder{steps: p.Steps}, nil
}

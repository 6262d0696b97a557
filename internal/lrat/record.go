package lrat

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
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
// To emit the steps, WriteText, WriteBinary and Text render them without
// building the list.
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
			return nil, duplicateID(steps[i].ID)
		}
	}
	return p, nil
}

func duplicateID(id int64) error { return fmt.Errorf("lrat: duplicate recorded id %d", id) }

// WriteText writes the recorded steps in the text format in ascending ID
// order: the bytes Write(w, p) writes for p, r.Proof().
func (r *Recorder) WriteText(w io.Writer) error {
	return r.stream(w, nil, func(buf, _ []byte, s *Step) []byte { return appendText(buf, s) })
}

// WriteBinary writes the recorded steps in the binary format in ascending
// ID order: the bytes WriteBinary(w, p) writes for p, r.Proof(). Each
// step's recorded bytes are copied as they are.
func (r *Recorder) WriteBinary(w io.Writer) error {
	return r.stream(w, appendBinaryHeader(nil), func(buf, enc []byte, _ *Step) []byte { return append(buf, enc...) })
}

// Text returns WriteText's bytes in a buffer of exactly their length.
func (r *Recorder) Text() ([]byte, error) {
	refs, n, err := r.ascending(textLen)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, n)
	r.each(refs, func(_ []byte, s *Step) error {
		buf = appendText(buf, s)
		return nil
	})
	return buf, nil
}

// stream writes head, then each step in ascending ID order as add appends
// it (from its encoding or its decoded form), in chunks of about flushAt.
func (r *Recorder) stream(w io.Writer, head []byte, add func(buf, enc []byte, s *Step) []byte) error {
	refs, _, err := r.ascending(nil)
	if err != nil {
		return err
	}
	const flushAt = 32 << 10
	buf := append(make([]byte, 0, 2*flushAt), head...)
	err = r.each(refs, func(enc []byte, s *Step) error {
		if buf = add(buf, enc, s); len(buf) < flushAt {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	})
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// stepRef locates one recorded step: its ID and the offset of its encoding
// in the concatenated pieces.
type stepRef struct {
	id, at int64
}

// ascending walks the recorded steps once and returns a reference to each,
// sorted by ID, and the sum of size over the steps (0 if size is nil).
func (r *Recorder) ascending(size func(*Step) int) ([]stepRef, int, error) {
	refs := make([]stepRef, 0, r.n)
	var (
		s         Step
		at        int64
		seen, sum int
		err       error
	)
	for _, p := range r.enc {
		seen, err = walkSteps(p, &recordedLimits, seen, &s, func(off int) {
			refs = append(refs, stepRef{id: s.ID, at: at + int64(off)})
			if size != nil {
				sum += size(&s)
			}
		})
		if err != nil {
			return nil, 0, fmt.Errorf("lrat: recorded steps: %w", err)
		}
		at += int64(len(p))
	}
	slices.SortFunc(refs, func(a, b stepRef) int { return cmp.Compare(a.id, b.id) })
	for i := 1; i < len(refs); i++ {
		if refs[i].id == refs[i-1].id {
			return nil, 0, duplicateID(refs[i].id)
		}
	}
	return refs, sum, nil
}

// each decodes the steps refs locate, in order, and calls fn with each
// one's encoding and decoded form until fn fails.
func (r *Recorder) each(refs []stepRef, fn func(enc []byte, s *Step) error) error {
	// ends[k] is the offset just past piece k.
	ends := make([]int64, len(r.enc))
	var at int64
	for k, p := range r.enc {
		at += int64(len(p))
		ends[k] = at
	}
	var s Step
	for _, ref := range refs {
		k, _ := slices.BinarySearch(ends, ref.at+1)
		enc := r.enc[k][ref.at-(ends[k]-int64(len(r.enc[k]))):]
		// ascending decoded these bytes already, so this cannot fail.
		n, _ := decodeStep(enc, &s, &recordedLimits, 0)
		if err := fn(enc[:n], &s); err != nil {
			return err
		}
	}
	return nil
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
	n := binaryHeaderLen
	for _, p := range r.enc {
		n += len(p)
	}
	return n
}

// DecodeRecorder restores a recorder from Encode's output. Checkpoint
// payloads are CRC-framed by the journal, so limits stay at their defaults.
// The blob is validated and its steps counted by the renderers' step
// walker, so no proof is built.
//
// The recorder keeps b after its header, which must not change afterwards,
// as its only piece, clipped to its length. A copy of the recorder that goes
// on recording therefore starts a new piece and never writes into b, so one
// decoded recorder can seed any number of runs.
func DecodeRecorder(b []byte) (*Recorder, error) {
	lim := cnf.DefaultParseLimits()
	if int64(len(b)) > lim.MaxBytes {
		return nil, &cnf.LimitError{What: "bytes", Limit: lim.MaxBytes}
	}
	if len(b) < binaryHeaderLen {
		return nil, fmt.Errorf("%w: truncated binary header", cnf.ErrMalformed)
	}
	if err := checkBinaryHeader(b); err != nil {
		return nil, err
	}
	body := b[binaryHeaderLen:len(b):len(b)]
	var s Step
	n, err := walkSteps(body, &lim, 0, &s, nil)
	if err != nil {
		return nil, err
	}
	return &Recorder{enc: [][]byte{body}, n: n}, nil
}

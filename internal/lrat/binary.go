package lrat

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/cnf"
)

// Binary LRAT format — the compact counterpart of the text format: a magic +
// version + flags header, then uvarint payloads with a 0 terminator that no
// mapped value can collide with.
//
// Layout:
//
//	magic "CLRT" | version byte (1) | flags byte (0)
//	addition: 'a' uvarint id | mapped literals..., 0 | mapped hints..., 0
//	deletion: 'd' uvarint id | uvarint deleted ids..., 0
//
// Literals are cnf.EncodeBinaryLit's binary DRAT encoding; a hint h maps
// the same way, to (|h| << 1) | (h < 0). Both are always >= 2, and deleted
// IDs are >= 1, so the 0 terminators are unambiguous.

const binaryMagic = "CLRT"

const binaryVersion = 1

// DetectBinary reports whether the buffer's first bytes look like the
// binary format; text proofs start with a digit or comment, never 'C'.
func DetectBinary(prefix []byte) bool {
	return len(prefix) >= len(binaryMagic) && string(prefix[:len(binaryMagic)]) == binaryMagic
}

func mapHint(h int64) uint64 {
	if h < 0 {
		return uint64(-h)<<1 | 1
	}
	return uint64(h) << 1
}

func unmapHint(u uint64, maxID int64) (int64, error) {
	mag := u >> 1
	if mag == 0 {
		return 0, fmt.Errorf("%w: binary hint 0 outside terminator position", cnf.ErrMalformed)
	}
	if mag > uint64(maxID) {
		return 0, &cnf.LimitError{What: "id", Limit: maxID}
	}
	if u&1 == 1 {
		return -int64(mag), nil
	}
	return int64(mag), nil
}

// WriteBinary writes the proof in the binary format.
func WriteBinary(w io.Writer, p *Proof) error {
	const flushAt = 32 << 10
	buf := appendBinaryHeader(make([]byte, 0, 2*flushAt))
	for i := range p.Steps {
		buf = appendBinaryStep(buf, &p.Steps[i])
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// binaryHeaderLen is the length of the binary format's header.
const binaryHeaderLen = len(binaryMagic) + 2

// appendBinaryHeader appends the binary format's magic, version and flags.
func appendBinaryHeader(b []byte) []byte {
	return append(append(b, binaryMagic...), binaryVersion, 0)
}

// checkBinaryHeader validates a header of binaryHeaderLen bytes.
func checkBinaryHeader(head []byte) error {
	if string(head[:len(binaryMagic)]) != binaryMagic {
		return fmt.Errorf("%w: bad magic %q", cnf.ErrMalformed, head[:len(binaryMagic)])
	}
	if head[4] != binaryVersion {
		return fmt.Errorf("%w: unsupported binary version %d", cnf.ErrMalformed, head[4])
	}
	if head[5] != 0 {
		return fmt.Errorf("%w: unsupported flags %#x", cnf.ErrMalformed, head[5])
	}
	return nil
}

// appendBinaryStep appends one step in the binary format.
func appendBinaryStep(b []byte, s *Step) []byte {
	if s.Del {
		b = binary.AppendUvarint(append(b, 'd'), uint64(s.ID))
		for _, id := range s.Deleted {
			b = binary.AppendUvarint(b, uint64(id))
		}
		return append(b, 0)
	}
	b = binary.AppendUvarint(append(b, 'a'), uint64(s.ID))
	for _, l := range s.C {
		b = binary.AppendUvarint(b, cnf.EncodeBinaryLit(l))
	}
	b = append(b, 0)
	for _, h := range s.Hints {
		b = binary.AppendUvarint(b, mapHint(h))
	}
	return append(b, 0)
}

// ReadBinary parses a binary proof under cnf.DefaultParseLimits.
func ReadBinary(r io.Reader) (*Proof, error) {
	return ReadBinaryLimited(r, cnf.DefaultParseLimits())
}

// ReadBinaryLimited is ReadBinary with explicit limits; it honours the same
// fields as ReadLimited. Truncation and encoding garbage, a uvarint that is
// not minimally encoded included, wrap cnf.ErrMalformed; limit violations
// wrap cnf.ErrLimit.
//
// Each step is decoded in place from the tokenizer's buffer by decodeStep,
// the decoder the recorder's walker uses. A step cut off at the end of the
// buffer is decoded again once at least twice its bytes so far are
// buffered (or the input has ended), so a long step costs linear time
// however the input arrives.
func ReadBinaryLimited(r io.Reader, lim cnf.ParseLimits) (*Proof, error) {
	lim = lim.WithDefaults()
	t := cnf.NewTokenizer(r, lim.MaxBytes)
	head := make([]byte, binaryHeaderLen)
	if _, err := io.ReadFull(t, head); err != nil {
		return nil, cnf.ReadErr(err, "binary header")
	}
	if err := checkBinaryHeader(head); err != nil {
		return nil, err
	}

	var (
		steps stepList
		s     Step // decodeStep's scratch
		lits  cnf.Slab[cnf.Lit]
		ids   cnf.Slab[int64] // hints and deleted IDs
	)
	for t.Refill(0) {
		b := t.Buffered()
		n, err := decodeStep(b, &s, &lim, steps.n)
		if cut, ok := err.(*truncatedError); ok {
			if t.Refill(2*len(b)) || len(t.Buffered()) > len(b) {
				continue
			}
			end := t.Err()
			if end == nil {
				end = io.EOF
			}
			return nil, cnf.ReadErr(end, cut.what)
		}
		if err != nil {
			return nil, err
		}
		t.Discard(n)
		st := Step{ID: s.ID, Del: s.Del}
		if s.Del {
			ids.Extend(s.Deleted)
			st.Deleted = ids.Cut()
		} else {
			lits.Extend(s.C)
			st.C = lits.Cut()
			ids.Extend(s.Hints)
			st.Hints = ids.Cut()
		}
		steps.add(st)
	}
	if err := t.Err(); err != nil {
		return nil, cnf.ReadErr(err, "step tag")
	}
	return steps.proof(), nil
}

// walkSteps decodes the steps of body, a binary encoding after its header,
// in order under lim, and calls visit (when not nil) with each one's
// offset in body. visit sees the step in s, whose slices the next step
// reuses. seen is how many steps came before body, which lim.MaxClauses
// also counts; walkSteps returns the count after body.
//
// It is ReadBinaryLimited for bytes already in memory, building no Proof.
// Because every uvarint must be minimally encoded, the bytes of an
// accepted step are exactly what appendBinaryStep writes for it.
func walkSteps(body []byte, lim *cnf.ParseLimits, seen int, s *Step, visit func(off int)) (int, error) {
	for off := 0; off < len(body); seen++ {
		n, err := decodeStep(body[off:], s, lim, seen)
		if err != nil {
			return seen, err
		}
		if visit != nil {
			visit(off)
		}
		off += n
	}
	return seen, nil
}

// decodeStep decodes the step at the start of b, which must not be empty,
// into s under lim and returns how many bytes it spans. step is the
// step's index, which lim.MaxClauses bounds. When b ends inside the step
// the error is a *truncatedError.
func decodeStep(b []byte, s *Step, lim *cnf.ParseLimits, step int) (int, error) {
	tag := b[0]
	if tag != 'a' && tag != 'd' {
		return 0, fmt.Errorf("%w: bad step tag %#x", cnf.ErrMalformed, tag)
	}
	if step >= lim.MaxClauses {
		return 0, &cnf.LimitError{What: "steps", Limit: int64(lim.MaxClauses)}
	}
	id, n := uvarint(b, 1)
	if n <= 0 {
		return 0, uvarintErr(n, "step id")
	}
	if id == 0 {
		return 0, fmt.Errorf("%w: step %d: id 0", cnf.ErrMalformed, step)
	}
	if id > uint64(lim.MaxID) {
		return 0, &cnf.LimitError{What: "id", Limit: lim.MaxID}
	}
	s.ID, s.Del = int64(id), tag == 'd'
	s.C, s.Hints, s.Deleted = s.C[:0], s.Hints[:0], s.Deleted[:0]
	var v uint64
	if s.Del {
		for {
			if v, n = uvarint(b, n); n <= 0 {
				return 0, uvarintErr(n, "deletion")
			}
			if v == 0 {
				return n, nil
			}
			if v > uint64(lim.MaxID) {
				return 0, &cnf.LimitError{What: "id", Limit: lim.MaxID}
			}
			if len(s.Deleted) >= lim.MaxHints {
				return 0, &cnf.LimitError{What: "hints", Limit: int64(lim.MaxHints)}
			}
			s.Deleted = append(s.Deleted, int64(v))
		}
	}
	// The loops below read one-byte uvarints, and decode in-range literals
	// and hints, inline (uvarint is too large for the compiler to inline);
	// the calls are for the rest and for the errors.
	for {
		if n < len(b) && b[n] < 0x80 {
			v, n = uint64(b[n]), n+1
		} else if v, n = uvarint(b, n); n <= 0 {
			return 0, uvarintErr(n, "clause")
		}
		if v == 0 {
			break
		}
		if len(s.C) >= lim.MaxClauseLen {
			return 0, &cnf.LimitError{What: "clause length", Limit: int64(lim.MaxClauseLen)}
		}
		if mag := v >> 1; mag == 0 || mag > uint64(lim.MaxVars) {
			_, err := cnf.DecodeBinaryLit(v, lim.MaxVars)
			return 0, err
		}
		s.C = append(s.C, cnf.Lit(v-2))
	}
	for {
		if n < len(b) && b[n] < 0x80 {
			v, n = uint64(b[n]), n+1
		} else if v, n = uvarint(b, n); n <= 0 {
			return 0, uvarintErr(n, "hints")
		}
		if v == 0 {
			return n, nil
		}
		if len(s.Hints) >= lim.MaxHints {
			return 0, &cnf.LimitError{What: "hints", Limit: int64(lim.MaxHints)}
		}
		mag := v >> 1
		if mag == 0 || mag > uint64(lim.MaxID) {
			_, err := unmapHint(v, lim.MaxID)
			return 0, err
		}
		h := int64(mag)
		if v&1 == 1 {
			h = -h
		}
		s.Hints = append(s.Hints, h)
	}
}

// truncatedError is decodeStep's error when its bytes end inside the step;
// what names the field cut off. ReadBinaryLimited reads on and decodes
// again; on bytes already whole it is the malformed-input error
// cnf.ReadErr gives for a truncation.
type truncatedError struct{ what string }

func (e *truncatedError) Error() string { return cnf.ReadErr(io.EOF, e.what).Error() }

func (e *truncatedError) Unwrap() error { return cnf.ErrMalformed }

// uvarint decodes the uvarint at b[n:] and returns it with the offset
// just past it. An offset of 0 means b ends inside the uvarint, -1 that it
// overflows 64 bits, and -2 that it is not minimally encoded. One- and
// two-byte uvarints, which hold most literals and hints (up to 16383),
// skip the general loop.
func uvarint(b []byte, n int) (uint64, int) {
	if n < len(b) && b[n] < 0x80 {
		return uint64(b[n]), n + 1
	}
	// b[n], if any, has its high bit set: a second byte without it, and
	// not 0, ends a minimal two-byte uvarint.
	if n+1 < len(b) {
		if c := b[n+1]; c-1 < 0x7f {
			return uint64(b[n]&0x7f) | uint64(c)<<7, n + 2
		}
	}
	v, k := binary.Uvarint(b[n:])
	switch {
	case k == 0:
		return 0, 0
	case k < 0:
		return 0, -1
	case b[n+k-1] == 0:
		// A last byte of 0 adds no bits: a longer encoding than needed.
		return 0, -2
	}
	return v, n + k
}

// uvarintErr is the error for uvarint's offset n <= 0 in the field what.
func uvarintErr(n int, what string) error {
	switch n {
	case 0:
		return &truncatedError{what}
	case -1:
		// encoding/binary's ReadUvarint error, which the reader once gave.
		return fmt.Errorf("%w: %s: binary: varint overflows a 64-bit integer", cnf.ErrMalformed, what)
	}
	return fmt.Errorf("%w: %s: uvarint not minimally encoded", cnf.ErrMalformed, what)
}

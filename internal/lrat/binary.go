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
// fields as ReadLimited. Truncation and encoding garbage wrap
// cnf.ErrMalformed; limit violations wrap cnf.ErrLimit.
func ReadBinaryLimited(r io.Reader, lim cnf.ParseLimits) (*Proof, error) {
	lim = lim.WithDefaults()
	br := cnf.NewTokenizer(r, lim.MaxBytes)
	head := make([]byte, binaryHeaderLen)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, cnf.ReadErr(err, "binary header")
	}
	if err := checkBinaryHeader(head); err != nil {
		return nil, err
	}

	p := &Proof{}
	var (
		lits cnf.Slab[cnf.Lit]
		ids  cnf.Slab[int64] // hints and deleted IDs
	)
	for {
		tag, err := br.ReadByte()
		if err == io.EOF {
			return p, nil
		}
		if err != nil {
			return nil, cnf.ReadErr(err, "step tag")
		}
		if tag != 'a' && tag != 'd' {
			return nil, fmt.Errorf("%w: bad step tag %#x", cnf.ErrMalformed, tag)
		}
		if len(p.Steps) >= lim.MaxClauses {
			return nil, &cnf.LimitError{What: "steps", Limit: int64(lim.MaxClauses)}
		}
		id, err := br.Uvarint()
		if err != nil {
			return nil, cnf.ReadErr(err, "step id")
		}
		if id == 0 || id > uint64(lim.MaxID) {
			if id == 0 {
				return nil, fmt.Errorf("%w: step %d: id 0", cnf.ErrMalformed, len(p.Steps))
			}
			return nil, &cnf.LimitError{What: "id", Limit: lim.MaxID}
		}
		s := Step{ID: int64(id), Del: tag == 'd'}
		if s.Del {
			for {
				u, err := br.Uvarint()
				if err != nil {
					return nil, cnf.ReadErr(err, "deletion")
				}
				if u == 0 {
					break
				}
				if u > uint64(lim.MaxID) {
					return nil, &cnf.LimitError{What: "id", Limit: lim.MaxID}
				}
				if ids.Len() >= lim.MaxHints {
					return nil, &cnf.LimitError{What: "hints", Limit: int64(lim.MaxHints)}
				}
				ids.Append(int64(u))
			}
			s.Deleted = ids.Cut()
			p.addStep(s)
			continue
		}
		for {
			u, err := br.Uvarint()
			if err != nil {
				return nil, cnf.ReadErr(err, "clause")
			}
			if u == 0 {
				break
			}
			if lits.Len() >= lim.MaxClauseLen {
				return nil, &cnf.LimitError{What: "clause length", Limit: int64(lim.MaxClauseLen)}
			}
			l, err := cnf.DecodeBinaryLit(u, lim.MaxVars)
			if err != nil {
				return nil, err
			}
			lits.Append(l)
		}
		s.C = lits.Cut()
		for {
			u, err := br.Uvarint()
			if err != nil {
				return nil, cnf.ReadErr(err, "hints")
			}
			if u == 0 {
				break
			}
			if ids.Len() >= lim.MaxHints {
				return nil, &cnf.LimitError{What: "hints", Limit: int64(lim.MaxHints)}
			}
			h, err := unmapHint(u, lim.MaxID)
			if err != nil {
				return nil, err
			}
			ids.Append(h)
		}
		s.Hints = ids.Cut()
		p.addStep(s)
	}
}

// walkSteps decodes the steps of body, a binary encoding after its header,
// in order under lim, and calls visit (when not nil) with each one's
// offset in body. visit sees the step in s, whose slices the next step
// reuses. seen is how many steps came before body, which lim.MaxClauses
// also counts; walkSteps returns the count after body.
//
// It is ReadBinaryLimited for bytes already in memory, building no Proof,
// and one step stricter: every uvarint must be minimally encoded, so that
// the bytes of an accepted step are exactly what appendBinaryStep writes
// for it.
func walkSteps(body []byte, lim *cnf.ParseLimits, seen int, s *Step, visit func(off int)) (int, error) {
	for off := 0; off < len(body); seen++ {
		if seen >= lim.MaxClauses {
			return seen, &cnf.LimitError{What: "steps", Limit: int64(lim.MaxClauses)}
		}
		n, err := decodeStep(body[off:], s, lim)
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
// into s under lim and returns how many bytes it spans.
func decodeStep(b []byte, s *Step, lim *cnf.ParseLimits) (int, error) {
	tag := b[0]
	if tag != 'a' && tag != 'd' {
		return 0, fmt.Errorf("%w: bad step tag %#x", cnf.ErrMalformed, tag)
	}
	u := uvarints{b: b, n: 1}
	id, err := u.next("step id")
	if err != nil {
		return 0, err
	}
	if id == 0 {
		return 0, fmt.Errorf("%w: step id 0", cnf.ErrMalformed)
	}
	if id > uint64(lim.MaxID) {
		return 0, &cnf.LimitError{What: "id", Limit: lim.MaxID}
	}
	s.ID, s.Del = int64(id), tag == 'd'
	s.C, s.Hints, s.Deleted = s.C[:0], s.Hints[:0], s.Deleted[:0]
	if s.Del {
		for {
			v, err := u.next("deletion")
			if err != nil {
				return 0, err
			}
			if v == 0 {
				return u.n, nil
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
	for {
		v, err := u.next("clause")
		if err != nil {
			return 0, err
		}
		if v == 0 {
			break
		}
		if len(s.C) >= lim.MaxClauseLen {
			return 0, &cnf.LimitError{What: "clause length", Limit: int64(lim.MaxClauseLen)}
		}
		l, err := cnf.DecodeBinaryLit(v, lim.MaxVars)
		if err != nil {
			return 0, err
		}
		s.C = append(s.C, l)
	}
	for {
		v, err := u.next("hints")
		if err != nil {
			return 0, err
		}
		if v == 0 {
			return u.n, nil
		}
		if len(s.Hints) >= lim.MaxHints {
			return 0, &cnf.LimitError{What: "hints", Limit: int64(lim.MaxHints)}
		}
		h, err := unmapHint(v, lim.MaxID)
		if err != nil {
			return 0, err
		}
		s.Hints = append(s.Hints, h)
	}
}

// uvarints reads the uvarints of b from offset n on.
type uvarints struct {
	b []byte
	n int
}

// next reads one uvarint; what names the field for errors.
func (u *uvarints) next(what string) (uint64, error) {
	v, k := binary.Uvarint(u.b[u.n:])
	switch {
	case k == 0:
		return 0, fmt.Errorf("%w: truncated %s", cnf.ErrMalformed, what)
	case k < 0:
		return 0, fmt.Errorf("%w: %s: uvarint overflows 64 bits", cnf.ErrMalformed, what)
	case k > 1 && u.b[u.n+k-1] == 0:
		// A last byte of 0 adds no bits: a longer encoding than needed.
		return 0, fmt.Errorf("%w: %s: uvarint not minimally encoded", cnf.ErrMalformed, what)
	}
	u.n += k
	return v, nil
}

package lrat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/cnf"
)

// Binary LRAT format — the compact counterpart of the text format, following
// the binary trace idiom (magic + version + flags header, uvarint payloads
// with a 0 terminator that no mapped value can collide with).
//
// Layout:
//
//	magic "CLRT" | version byte (1) | flags byte (0)
//	addition: 'a' uvarint id | mapped literals..., 0 | mapped hints..., 0
//	deletion: 'd' uvarint id | uvarint deleted ids..., 0
//
// A literal with DIMACS value v maps to (|v| << 1) | (v < 0); a hint h maps
// to (|h| << 1) | (h < 0). Both are always >= 2, and deleted IDs are >= 1,
// so the 0 terminators are unambiguous.

const binaryMagic = "CLRT"

const binaryVersion = 1

// DetectBinary reports whether the buffer's first bytes look like the
// binary format; text proofs start with a digit or comment, never 'C'.
func DetectBinary(prefix []byte) bool {
	return len(prefix) >= len(binaryMagic) && string(prefix[:len(binaryMagic)]) == binaryMagic
}

func mapLit(l cnf.Lit) uint64 {
	d := l.Dimacs()
	if d < 0 {
		return uint64(-d)<<1 | 1
	}
	return uint64(d) << 1
}

func mapHint(h int64) uint64 {
	if h < 0 {
		return uint64(-h)<<1 | 1
	}
	return uint64(h) << 1
}

// unmapLit decodes a mapped literal, refusing magnitudes beyond maxVar on
// the uint64 before narrowing — a 2^40 "variable" must not wrap the int32
// literal encoding.
func unmapLit(u uint64, maxVar int) (cnf.Lit, error) {
	mag := u >> 1
	if mag == 0 {
		return cnf.LitUndef, fmt.Errorf("%w: binary literal 0 outside terminator position", ErrMalformed)
	}
	if mag > uint64(maxVar) {
		return cnf.LitUndef, &LimitError{What: "variable", Limit: int64(maxVar)}
	}
	if u&1 == 1 {
		return cnf.FromDimacs(-int(mag)), nil
	}
	return cnf.FromDimacs(int(mag)), nil
}

func unmapHint(u uint64, maxID int64) (int64, error) {
	mag := u >> 1
	if mag == 0 {
		return 0, fmt.Errorf("%w: binary hint 0 outside terminator position", ErrMalformed)
	}
	if mag > uint64(maxID) {
		return 0, &LimitError{What: "id", Limit: maxID}
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

// appendBinaryHeader appends the binary format's magic, version and flags.
func appendBinaryHeader(b []byte) []byte {
	return append(append(b, binaryMagic...), binaryVersion, 0)
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
		b = binary.AppendUvarint(b, mapLit(l))
	}
	b = append(b, 0)
	for _, h := range s.Hints {
		b = binary.AppendUvarint(b, mapHint(h))
	}
	return append(b, 0)
}

// ReadBinary parses a binary proof under DefaultLimits.
func ReadBinary(r io.Reader) (*Proof, error) {
	return ReadBinaryLimited(r, DefaultLimits())
}

// ReadBinaryLimited is ReadBinary with explicit Limits. Truncation and
// encoding garbage wrap ErrMalformed; limit violations wrap ErrLimit.
func ReadBinaryLimited(r io.Reader, lim Limits) (*Proof, error) {
	lim = lim.withDefaults()
	br := cnf.NewTokenizer(r, lim.MaxBytes, &LimitError{What: "bytes", Limit: lim.MaxBytes})
	head := make([]byte, len(binaryMagic)+2)
	if _, err := io.ReadFull(br, head); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated binary header", ErrMalformed)
		}
		return nil, limitOr(err, fmt.Errorf("lrat: binary header: %w", err))
	}
	if string(head[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrMalformed, head[:len(binaryMagic)])
	}
	if head[4] != binaryVersion {
		return nil, fmt.Errorf("%w: unsupported binary version %d", ErrMalformed, head[4])
	}
	if head[5] != 0 {
		return nil, fmt.Errorf("%w: unsupported flags %#x", ErrMalformed, head[5])
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
			return nil, limitOr(err, fmt.Errorf("%w: step tag: %v", ErrMalformed, err))
		}
		if tag != 'a' && tag != 'd' {
			return nil, fmt.Errorf("%w: bad step tag %#x", ErrMalformed, tag)
		}
		if len(p.Steps) >= lim.MaxSteps {
			return nil, &LimitError{What: "steps", Limit: int64(lim.MaxSteps)}
		}
		id, err := br.Uvarint()
		if err != nil {
			return nil, uvarintErr(err, "step id")
		}
		if id == 0 || id > uint64(lim.MaxID) {
			if id == 0 {
				return nil, fmt.Errorf("%w: step %d: id 0", ErrMalformed, len(p.Steps))
			}
			return nil, &LimitError{What: "id", Limit: lim.MaxID}
		}
		s := Step{ID: int64(id), Del: tag == 'd'}
		if s.Del {
			for {
				u, err := br.Uvarint()
				if err != nil {
					return nil, uvarintErr(err, "deletion")
				}
				if u == 0 {
					break
				}
				if u > uint64(lim.MaxID) {
					return nil, &LimitError{What: "id", Limit: lim.MaxID}
				}
				if ids.Len() >= lim.MaxHints {
					return nil, &LimitError{What: "hints", Limit: int64(lim.MaxHints)}
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
				return nil, uvarintErr(err, "clause")
			}
			if u == 0 {
				break
			}
			if lits.Len() >= lim.MaxClauseLen {
				return nil, &LimitError{What: "clause length", Limit: int64(lim.MaxClauseLen)}
			}
			l, err := unmapLit(u, lim.MaxVar)
			if err != nil {
				return nil, err
			}
			lits.Append(l)
		}
		s.C = lits.Cut()
		for {
			u, err := br.Uvarint()
			if err != nil {
				return nil, uvarintErr(err, "hints")
			}
			if u == 0 {
				break
			}
			if ids.Len() >= lim.MaxHints {
				return nil, &LimitError{What: "hints", Limit: int64(lim.MaxHints)}
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

// uvarintErr reports a failed read of the varint named what.
func uvarintErr(err error, what string) error {
	if err == io.EOF {
		return fmt.Errorf("%w: truncated %s", ErrMalformed, what)
	}
	return limitOr(err, fmt.Errorf("%w: %s: %v", ErrMalformed, what, err))
}

// limitOr unwraps a *LimitError riding inside err (the tokenizer's
// byte-budget violation), else returns alt.
func limitOr(err, alt error) error {
	var le *LimitError
	if errors.As(err, &le) {
		return le
	}
	return alt
}

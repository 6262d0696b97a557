package proof

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/cnf"
)

// Binary trace format — the compact counterpart of the text format, in the
// spirit of the binary DRAT encoding (the paper's proofs ran to hundreds of
// megabytes in text; §6 reports a 257 MB proof for 7pipe).
//
// Layout:
//
//	magic "CCPF" | version byte (1) | flags byte
//	per clause: [uvarint resolution count, when flags&1]
//	            uvarint mapped literals..., terminated by a 0 byte
//
// A literal with DIMACS value d maps to (|d| << 1) | (d < 0), which is
// always >= 2, so the 0 terminator is unambiguous.

const binaryMagic = "CCPF"

const (
	binaryVersion       = 1
	binaryFlagResCounts = 1
)

func mapLit(l cnf.Lit) uint64 {
	d := l.Dimacs()
	if d < 0 {
		return uint64(-d)<<1 | 1
	}
	return uint64(d) << 1
}

// unmapLit decodes a mapped literal, refusing magnitudes beyond maxVar —
// the check must happen on the uint64 before narrowing, or a 2^40 "variable"
// would wrap the int32 literal encoding into nonsense (or a panic).
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

// WriteBinary writes the trace in the binary format.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	flags := byte(0)
	if t.Resolutions != nil {
		flags |= binaryFlagResCounts
	}
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(binaryVersion); err != nil {
		return err
	}
	if err := bw.WriteByte(flags); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(u uint64) error {
		n := binary.PutUvarint(buf[:], u)
		_, err := bw.Write(buf[:n])
		return err
	}
	for i, c := range t.Clauses {
		if t.Resolutions != nil {
			if err := putUvarint(uint64(t.Resolutions[i])); err != nil {
				return err
			}
		}
		for _, l := range c {
			if err := putUvarint(mapLit(l)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte(0); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a binary trace under DefaultLimits.
func ReadBinary(r io.Reader) (*Trace, error) {
	return ReadBinaryLimited(r, DefaultLimits())
}

// ReadBinaryLimited is ReadBinary with explicit Limits. Truncation and
// encoding garbage wrap ErrMalformed; limit violations wrap ErrLimit.
func ReadBinaryLimited(r io.Reader, lim Limits) (*Trace, error) {
	lim = lim.withDefaults()
	br := cnf.NewTokenizer(r, lim.MaxBytes, &LimitError{What: "bytes", Limit: lim.MaxBytes})
	head := make([]byte, len(binaryMagic)+2)
	if _, err := io.ReadFull(br, head); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated binary header", ErrMalformed)
		}
		return nil, fmt.Errorf("proof: binary header: %w", err)
	}
	if string(head[:4]) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrMalformed, head[:4])
	}
	if head[4] != binaryVersion {
		return nil, fmt.Errorf("%w: unsupported binary version %d", ErrMalformed, head[4])
	}
	flags := head[5]
	hasRes := flags&binaryFlagResCounts != 0

	t := New()
	if !hasRes {
		t.Resolutions = nil
	}
	var lits cnf.Slab[cnf.Lit]
	for {
		if hasRes {
			res, err := br.Uvarint()
			if err == io.EOF {
				return t, nil
			}
			if err != nil {
				return nil, fmt.Errorf("%w: binary resolution count: %v", ErrMalformed, err)
			}
			t.Resolutions = append(t.Resolutions, int64(res))
		}
		first := true
		for {
			u, err := br.Uvarint()
			if err == io.EOF {
				if first && !hasRes {
					return t, nil
				}
				return nil, fmt.Errorf("%w: truncated binary clause", ErrMalformed)
			}
			if err != nil {
				var le *LimitError
				if errors.As(err, &le) {
					return nil, le
				}
				return nil, fmt.Errorf("%w: binary literal: %v", ErrMalformed, err)
			}
			first = false
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
		if len(t.Clauses) >= lim.MaxClauses {
			return nil, &LimitError{What: "clauses", Limit: int64(lim.MaxClauses)}
		}
		t.Clauses = append(t.Clauses, lits.Cut())
	}
}

package proof

import (
	"bufio"
	"encoding/binary"
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
// Literals are cnf.EncodeBinaryLit's binary DRAT encoding, always >= 2, so
// the 0 terminator is unambiguous.

const binaryMagic = "CCPF"

const (
	binaryVersion       = 1
	binaryFlagResCounts = 1
)

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
			if err := putUvarint(cnf.EncodeBinaryLit(l)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte(0); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a binary trace under cnf.DefaultParseLimits.
func ReadBinary(r io.Reader) (*Trace, error) {
	return ReadBinaryLimited(r, cnf.DefaultParseLimits())
}

// ReadBinaryLimited is ReadBinary with explicit limits; it honours the same
// fields as ReadLimited. Truncation and encoding garbage wrap
// cnf.ErrMalformed; limit violations wrap cnf.ErrLimit.
func ReadBinaryLimited(r io.Reader, lim cnf.ParseLimits) (*Trace, error) {
	lim = lim.WithDefaults()
	br := cnf.NewTokenizer(r, lim.MaxBytes)
	head := make([]byte, len(binaryMagic)+2)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, cnf.ReadErr(err, "binary header")
	}
	if string(head[:4]) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", cnf.ErrMalformed, head[:4])
	}
	if head[4] != binaryVersion {
		return nil, fmt.Errorf("%w: unsupported binary version %d", cnf.ErrMalformed, head[4])
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
				return nil, cnf.ReadErr(err, "binary resolution count")
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
				return nil, fmt.Errorf("%w: truncated binary clause", cnf.ErrMalformed)
			}
			if err != nil {
				return nil, cnf.ReadErr(err, "binary literal")
			}
			first = false
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
		if len(t.Clauses) >= lim.MaxClauses {
			return nil, &cnf.LimitError{What: "clauses", Limit: int64(lim.MaxClauses)}
		}
		t.Clauses = append(t.Clauses, lits.Cut())
	}
}

package cnf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseDimacs reads a CNF formula in DIMACS format under DefaultParseLimits.
// It tolerates comment lines anywhere, a missing header (the formula is then
// sized from its content), literals above the declared variable count (the
// range grows), and clauses spanning multiple lines. It rejects a truncated
// final clause and a header declaring more clauses than the file provides.
func ParseDimacs(r io.Reader) (*Formula, error) {
	return ParseDimacsLimited(r, DefaultParseLimits())
}

// ParseDimacsLimited is ParseDimacs with explicit limits — the entry point
// for genuinely untrusted input. Syntax problems wrap ErrMalformed and limit
// violations wrap ErrLimit. A line whose first field starts with 'c' is a
// comment, one starting with 'p' the header, and one starting with '%' (the
// SATLIB trailer) ends the formula. Lines may be of any length; a line of
// plain integers is read by the tokenizer's whole-line path.
//
// The clause list is sized from the header's clause count, which is
// untrusted: the first allocation holds at most presizeMax clauses, and the
// list then doubles until it reaches the declared count. So a header that
// overstates costs at most a constant factor over the clauses actually read
// (each of which takes at least two input bytes), and an accurate one
// allocates the list about once instead of through append's 1.25x steps.
func ParseDimacsLimited(r io.Reader, lim ParseLimits) (*Formula, error) {
	lim = lim.WithDefaults()
	t := NewTokenizer(r, lim.MaxBytes)
	d := &dimacsReader{lim: lim, f: &Formula{}, declared: -1}
	f := d.f
	var buf [256]int64 // LineInts' values, on the stack for most lines
	vals := buf[:0]
	trailer := false // the input past a '%' line goes unread
scan:
	for {
		var ok bool
		if vals, ok = t.LineInts(vals[:0]); ok {
			for _, v := range vals {
				if err := d.value(v); err != nil {
					return nil, err
				}
			}
			continue
		}
		tok := t.Next()
		if tok == nil {
			break
		}
		if t.FirstOnLine() {
			switch tok[0] {
			case 'c':
				t.SkipLine()
				continue
			case '%':
				trailer = true
				break scan
			case 'p':
				lineNo := t.Line()
				line := string(bytes.TrimSpace(append(bytes.Clone(tok), t.RestOfLine()...)))
				fields := strings.Fields(line)
				if len(fields) != 4 || fields[1] != "cnf" {
					return nil, fmt.Errorf("%w: line %d: bad header %q", ErrMalformed, lineNo, line)
				}
				nv, err1 := strconv.Atoi(fields[2])
				nc, err2 := strconv.Atoi(fields[3])
				if err1 != nil || err2 != nil || nv < 0 || nc < 0 {
					return nil, fmt.Errorf("%w: line %d: bad header %q", ErrMalformed, lineNo, line)
				}
				if nv > lim.MaxVars {
					return nil, &LimitError{What: "variables", Limit: int64(lim.MaxVars)}
				}
				if nc > lim.MaxClauses {
					return nil, &LimitError{What: "clauses", Limit: int64(lim.MaxClauses)}
				}
				f.NumVars = nv
				d.declared = nc
				continue
			}
		}
		v, ok := ParseInt(tok)
		if !ok {
			return nil, fmt.Errorf("%w: line %d: unexpected token %q", ErrMalformed, t.Line(), tok)
		}
		if err := d.value(v); err != nil {
			return nil, err
		}
	}
	if err := t.Err(); err != nil && !trailer {
		return nil, ReadErr(err, "read")
	}
	if d.lits.Len() > 0 {
		return nil, fmt.Errorf("%w: last clause not terminated by 0", ErrMalformed)
	}
	if d.declared >= 0 && len(f.Clauses) < d.declared {
		return nil, fmt.Errorf("%w: header declares %d clauses, found %d",
			ErrMalformed, d.declared, len(f.Clauses))
	}
	return f, nil
}

// dimacsReader is ParseDimacsLimited's clause state, which both the
// whole-line path and the field path feed.
type dimacsReader struct {
	lim      ParseLimits
	f        *Formula
	lits     Slab[Lit]
	declared int // the header's clause count, or -1
}

// value takes one integer field: a literal, or the 0 that ends a clause.
func (d *dimacsReader) value(v int64) error {
	lim, f := &d.lim, d.f
	if v == 0 {
		if len(f.Clauses) >= lim.MaxClauses {
			return &LimitError{What: "clauses", Limit: int64(lim.MaxClauses)}
		}
		if len(f.Clauses) == cap(f.Clauses) && len(f.Clauses) < d.declared {
			f.Clauses = growClauses(f.Clauses, d.declared)
		}
		f.Clauses = append(f.Clauses, d.lits.Cut())
		return nil
	}
	// Bound the magnitude before FromDimacs narrows it into the int32
	// Var encoding.
	if v > int64(lim.MaxVars) || v < -int64(lim.MaxVars) {
		return &LimitError{What: "variables", Limit: int64(lim.MaxVars)}
	}
	if d.lits.Len() >= lim.MaxClauseLen {
		return &LimitError{What: "clause length", Limit: int64(lim.MaxClauseLen)}
	}
	l := FromDimacs(int(v))
	if int(l.Var()) >= f.NumVars {
		f.NumVars = int(l.Var()) + 1
	}
	d.lits.Append(l)
	return nil
}

// presizeMax caps the first clause-list allocation a header can ask for.
const presizeMax = 1 << 16

// growClauses returns cs with room for at least one more clause and at most
// declared in all: min(declared, presizeMax) the first time, then double.
func growClauses(cs []Clause, declared int) []Clause {
	n := min(declared, max(2*cap(cs), presizeMax))
	return append(make([]Clause, 0, n), cs...)
}

// ParseDimacsString parses a DIMACS formula held in a string.
func ParseDimacsString(s string) (*Formula, error) {
	return ParseDimacs(strings.NewReader(s))
}

// WriteDimacs writes the formula in DIMACS format.
func WriteDimacs(w io.Writer, f *Formula) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses)); err != nil {
		return err
	}
	var line []byte
	for _, c := range f.Clauses {
		line = AppendClauseLine(line[:0], c)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendClauseLine appends c as one DIMACS clause line, "l1 l2 ... 0\n",
// to b. The DIMACS and trace writers share it.
func AppendClauseLine(b []byte, c Clause) []byte {
	for _, l := range c {
		b = strconv.AppendInt(b, int64(l.Dimacs()), 10)
		b = append(b, ' ')
	}
	return append(b, "0\n"...)
}

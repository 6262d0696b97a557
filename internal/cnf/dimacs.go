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
// SATLIB trailer) ends the formula. Lines may be of any length.
func ParseDimacsLimited(r io.Reader, lim ParseLimits) (*Formula, error) {
	lim = lim.WithDefaults()
	t := NewTokenizer(r, lim.MaxBytes)
	f := &Formula{}
	declaredClauses := -1
	var lits Slab[Lit]
	trailer := false // the input past a '%' line goes unread
scan:
	for tok := t.Next(); tok != nil; tok = t.Next() {
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
				declaredClauses = nc
				continue
			}
		}
		d, ok := ParseInt(tok)
		if !ok {
			return nil, fmt.Errorf("%w: line %d: unexpected token %q", ErrMalformed, t.Line(), tok)
		}
		if d == 0 {
			if len(f.Clauses) >= lim.MaxClauses {
				return nil, &LimitError{What: "clauses", Limit: int64(lim.MaxClauses)}
			}
			f.Clauses = append(f.Clauses, lits.Cut())
			continue
		}
		// Bound the magnitude before FromDimacs narrows it into the int32
		// Var encoding.
		if d > int64(lim.MaxVars) || d < -int64(lim.MaxVars) {
			return nil, &LimitError{What: "variables", Limit: int64(lim.MaxVars)}
		}
		if lits.Len() >= lim.MaxClauseLen {
			return nil, &LimitError{What: "clause length", Limit: int64(lim.MaxClauseLen)}
		}
		l := FromDimacs(int(d))
		if int(l.Var()) >= f.NumVars {
			f.NumVars = int(l.Var()) + 1
		}
		lits.Append(l)
	}
	if err := t.Err(); err != nil && !trailer {
		return nil, ReadErr(err, "read")
	}
	if lits.Len() > 0 {
		return nil, fmt.Errorf("%w: last clause not terminated by 0", ErrMalformed)
	}
	if declaredClauses >= 0 && len(f.Clauses) < declaredClauses {
		return nil, fmt.Errorf("%w: header declares %d clauses, found %d",
			ErrMalformed, declaredClauses, len(f.Clauses))
	}
	return f, nil
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

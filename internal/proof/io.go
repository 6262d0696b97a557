package proof

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cnf"
)

// Write streams the trace in the text format described in the package
// comment: one clause per line, "c res <n>" comments carrying resolution
// counts when present.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i, c := range t.Clauses {
		line = line[:0]
		if t.Resolutions != nil {
			line = append(line, "c res "...)
			line = strconv.AppendInt(line, t.Resolutions[i], 10)
			line = append(line, '\n')
		}
		line = cnf.AppendClauseLine(line, c)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DefaultLimits is cnf.DefaultParseLimits.
//
// Deprecated: use cnf.DefaultParseLimits.
func DefaultLimits() cnf.ParseLimits { return cnf.DefaultParseLimits() }

// Read parses a trace in the text format under cnf.DefaultParseLimits. Clauses may
// span lines; comments other than "c res" are ignored. A "c res <n>"
// comment annotates the next clause. If any clause carries an annotation,
// unannotated clauses get 0.
func Read(r io.Reader) (*Trace, error) { return ReadLimited(r, cnf.DefaultParseLimits()) }

// ReadLimited is Read with explicit limits — the entry point for genuinely
// untrusted input. It honours MaxClauses, MaxClauseLen, MaxVars and
// MaxBytes. Syntax problems (including truncation) wrap cnf.ErrMalformed
// and limit violations wrap cnf.ErrLimit, so callers can map the two
// failure classes to distinct outcomes. A line whose first field starts
// with 'c' is a comment; every other field is a DIMACS literal or the 0
// that ends a clause. Lines may be of any length; a line of plain integers
// is read by the tokenizer's whole-line path.
func ReadLimited(r io.Reader, lim cnf.ParseLimits) (*Trace, error) {
	lim = lim.WithDefaults()
	tz := cnf.NewTokenizer(r, lim.MaxBytes)
	rd := &traceReader{lim: lim, t: New()}
	rd.t.Resolutions = nil
	var buf [256]int64 // LineInts' values, on the stack for most lines
	vals := buf[:0]
	for {
		var ok bool
		if vals, ok = tz.LineInts(vals[:0]); ok {
			for _, d := range vals {
				if err := rd.value(d); err != nil {
					return nil, err
				}
			}
			continue
		}
		f := tz.Next()
		if f == nil {
			break
		}
		if tz.FirstOnLine() && f[0] == 'c' {
			n, ok, err := resComment(tz)
			if err != nil {
				return nil, err
			}
			if ok {
				if !rd.sawRes {
					// Earlier clauses get 0, as the package comment promises.
					rd.sawRes = true
					if n := len(rd.t.Clauses); n > 0 {
						rd.res = make([]int64, n, n+1)
					}
				}
				rd.pendingRes = n
			}
			continue
		}
		d, ok := cnf.ParseInt(f)
		if !ok {
			return nil, fmt.Errorf("%w: line %d: unexpected token %q", cnf.ErrMalformed, tz.Line(), f)
		}
		if err := rd.value(d); err != nil {
			return nil, err
		}
	}
	if err := tz.Err(); err != nil {
		return nil, cnf.ReadErr(err, "read")
	}
	if rd.lits.Len() > 0 {
		return nil, fmt.Errorf("%w: last clause not terminated by 0", cnf.ErrMalformed)
	}
	if rd.sawRes {
		rd.t.Resolutions = rd.res
	}
	return rd.t, nil
}

// traceReader is ReadLimited's clause state, which both the tokenizer's
// whole-line path and its field path feed.
type traceReader struct {
	lim        cnf.ParseLimits
	t          *Trace
	lits       cnf.Slab[cnf.Lit]
	pendingRes int64
	sawRes     bool
	res        []int64 // per-clause counts, kept once a "c res" was seen
}

// value takes one integer field: a literal, or the 0 that ends a clause.
func (rd *traceReader) value(d int64) error {
	lim, t := &rd.lim, rd.t
	if d == 0 {
		if len(t.Clauses) >= lim.MaxClauses {
			return &cnf.LimitError{What: "clauses", Limit: int64(lim.MaxClauses)}
		}
		t.Clauses = append(t.Clauses, rd.lits.Cut())
		if rd.sawRes {
			rd.res = append(rd.res, rd.pendingRes)
		}
		rd.pendingRes = 0
		return nil
	}
	if d > int64(lim.MaxVars) || d < -int64(lim.MaxVars) {
		return &cnf.LimitError{What: "variables", Limit: int64(lim.MaxVars)}
	}
	if rd.lits.Len() >= lim.MaxClauseLen {
		return &cnf.LimitError{What: "clause length", Limit: int64(lim.MaxClauseLen)}
	}
	rd.lits.Append(cnf.FromDimacs(int(d)))
	return nil
}

// resComment reads the rest of a comment line. A comment of exactly three
// fields, the second "res", annotates the next clause with the third.
func resComment(tz *cnf.Tokenizer) (n int64, ok bool, err error) {
	line := tz.Line()
	if w := tz.NextInLine(); w == nil || string(w) != "res" {
		if w != nil {
			tz.SkipLine()
		}
		return 0, false, nil
	}
	count := tz.NextInLine()
	if count == nil {
		return 0, false, nil
	}
	n, ok = cnf.ParseInt(count)
	var bad []byte
	if !ok {
		bad = bytes.Clone(count) // count is only valid until the next field
	}
	if tz.NextInLine() != nil {
		tz.SkipLine()
		return 0, false, nil
	}
	if !ok {
		return 0, false, fmt.Errorf("%w: line %d: bad res count %q", cnf.ErrMalformed, line, bad)
	}
	return n, true, nil
}

// ReadString parses a trace held in a string.
func ReadString(s string) (*Trace, error) { return Read(strings.NewReader(s)) }

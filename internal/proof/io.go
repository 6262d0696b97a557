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

// Read parses a trace in the text format under DefaultLimits. Clauses may
// span lines; comments other than "c res" are ignored. A "c res <n>"
// comment annotates the next clause. If any clause carries an annotation,
// unannotated clauses get 0.
func Read(r io.Reader) (*Trace, error) { return ReadLimited(r, DefaultLimits()) }

// ReadLimited is Read with explicit Limits — the entry point for genuinely
// untrusted input. Syntax problems (including truncation) wrap ErrMalformed
// and limit violations wrap ErrLimit, so callers can map the two failure
// classes to distinct outcomes. A line whose first field starts with 'c' is
// a comment; every other field is a DIMACS literal or the 0 that ends a
// clause. Lines may be of any length.
func ReadLimited(r io.Reader, lim Limits) (*Trace, error) {
	lim = lim.withDefaults()
	tz := cnf.NewTokenizer(r, lim.MaxBytes, &LimitError{What: "bytes", Limit: lim.MaxBytes})
	t := New()
	t.Resolutions = nil
	var (
		lits       cnf.Slab[cnf.Lit]
		pendingRes int64
		sawRes     bool
		res        []int64 // per-clause counts, kept once a "c res" was seen
	)
	for f := tz.Next(); f != nil; f = tz.Next() {
		if tz.FirstOnLine() && f[0] == 'c' {
			n, ok, err := resComment(tz)
			if err != nil {
				return nil, err
			}
			if ok {
				if !sawRes {
					// Earlier clauses get 0, as the package comment promises.
					sawRes = true
					if n := len(t.Clauses); n > 0 {
						res = make([]int64, n, n+1)
					}
				}
				pendingRes = n
			}
			continue
		}
		d, ok := cnf.ParseInt(f)
		if !ok {
			return nil, fmt.Errorf("%w: line %d: unexpected token %q", ErrMalformed, tz.Line(), f)
		}
		if d == 0 {
			if len(t.Clauses) >= lim.MaxClauses {
				return nil, &LimitError{What: "clauses", Limit: int64(lim.MaxClauses)}
			}
			t.Clauses = append(t.Clauses, lits.Cut())
			if sawRes {
				res = append(res, pendingRes)
			}
			pendingRes = 0
			continue
		}
		if d > int64(lim.MaxVar) || d < -int64(lim.MaxVar) {
			return nil, &LimitError{What: "variable", Limit: int64(lim.MaxVar)}
		}
		if lits.Len() >= lim.MaxClauseLen {
			return nil, &LimitError{What: "clause length", Limit: int64(lim.MaxClauseLen)}
		}
		lits.Append(cnf.FromDimacs(int(d)))
	}
	if err := tz.Err(); err != nil {
		return nil, err
	}
	if lits.Len() > 0 {
		return nil, fmt.Errorf("%w: last clause not terminated by 0", ErrMalformed)
	}
	if sawRes {
		t.Resolutions = res
	}
	return t, nil
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
		return 0, false, fmt.Errorf("%w: line %d: bad res count %q", ErrMalformed, line, bad)
	}
	return n, true, nil
}

// ReadString parses a trace held in a string.
func ReadString(s string) (*Trace, error) { return Read(strings.NewReader(s)) }

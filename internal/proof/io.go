package proof

import (
	"bufio"
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
	for i, c := range t.Clauses {
		if t.Resolutions != nil {
			if _, err := fmt.Fprintf(bw, "c res %d\n", t.Resolutions[i]); err != nil {
				return err
			}
		}
		for _, l := range c {
			if _, err := bw.WriteString(strconv.Itoa(l.Dimacs())); err != nil {
				return err
			}
			if err := bw.WriteByte(' '); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("0\n"); err != nil {
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
// classes to distinct outcomes.
func ReadLimited(r io.Reader, lim Limits) (*Trace, error) {
	lim = lim.withDefaults()
	sc := bufio.NewScanner(newCappedReader(r, lim.MaxBytes))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)

	t := New()
	t.Resolutions = nil
	var cur cnf.Clause
	var pendingRes int64
	sawRes := false
	var resCounts []int64

	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == 'c' {
			fields := strings.Fields(line)
			if len(fields) == 3 && fields[1] == "res" {
				n, err := strconv.ParseInt(fields[2], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%w: line %d: bad res count %q", ErrMalformed, lineNo, fields[2])
				}
				pendingRes = n
				sawRes = true
			}
			continue
		}
		for _, tok := range strings.Fields(line) {
			d, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: unexpected token %q", ErrMalformed, lineNo, tok)
			}
			if d == 0 {
				if len(t.Clauses) >= lim.MaxClauses {
					return nil, &LimitError{What: "clauses", Limit: int64(lim.MaxClauses)}
				}
				t.Clauses = append(t.Clauses, cur)
				resCounts = append(resCounts, pendingRes)
				cur = nil
				pendingRes = 0
				continue
			}
			if d > lim.MaxVar || d < -lim.MaxVar {
				return nil, &LimitError{What: "variable", Limit: int64(lim.MaxVar)}
			}
			if len(cur) >= lim.MaxClauseLen {
				return nil, &LimitError{What: "clause length", Limit: int64(lim.MaxClauseLen)}
			}
			cur = append(cur, cnf.FromDimacs(d))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cur) > 0 {
		return nil, fmt.Errorf("%w: last clause not terminated by 0", ErrMalformed)
	}
	if sawRes {
		t.Resolutions = resCounts
	}
	return t, nil
}

// ReadString parses a trace held in a string.
func ReadString(s string) (*Trace, error) { return Read(strings.NewReader(s)) }

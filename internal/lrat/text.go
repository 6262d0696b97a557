package lrat

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/cnf"
)

// Text LRAT format, one step per line (the parser tolerates line breaks
// anywhere, like the DIMACS readers):
//
//	<id> <lits...> 0 <hints...> 0      addition
//	<id> d <ids...> 0                  deletion
//
// Fields are separated by any white space. A field starting with 'c' begins
// a comment that runs to the end of its line. Lines may be of any length.

// Write streams the proof in the text format.
func Write(w io.Writer, p *Proof) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for i := range p.Steps {
		buf = appendText(buf[:0], &p.Steps[i])
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendText appends one step's text line. It is the one definition of the
// line format: Write and the recorder's renderers both use it, and textLen
// counts its bytes.
func appendText(buf []byte, s *Step) []byte {
	buf = strconv.AppendInt(buf, s.ID, 10)
	if s.Del {
		buf = append(buf, " d"...)
		for _, id := range s.Deleted {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, id, 10)
		}
	} else {
		for _, l := range s.C {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(l.Dimacs()), 10)
		}
		buf = append(buf, " 0"...)
		for _, h := range s.Hints {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, h, 10)
		}
	}
	return append(buf, " 0\n"...)
}

// textLen returns len(appendText(nil, s)) without formatting anything.
func textLen(s *Step) int {
	n := decLen(s.ID) + len(" 0\n")
	if s.Del {
		n += len(" d")
		for _, id := range s.Deleted {
			n += 1 + decLen(id)
		}
		return n
	}
	for _, l := range s.C {
		n += 1 + decLen(int64(l.Dimacs()))
	}
	n += len(" 0")
	for _, h := range s.Hints {
		n += 1 + decLen(h)
	}
	return n
}

// decLen returns len(strconv.AppendInt(nil, v, 10)).
func decLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// Read parses a text proof under cnf.DefaultParseLimits.
func Read(r io.Reader) (*Proof, error) { return ReadLimited(r, cnf.DefaultParseLimits()) }

// ReadLimited is Read with explicit limits — the entry point for genuinely
// untrusted input. Every field of the limits applies; MaxClauses bounds the
// steps, MaxHints the hints or deleted IDs of one step. Syntax problems
// (including truncation) wrap cnf.ErrMalformed and limit violations wrap
// cnf.ErrLimit. A line of plain integers is read by the tokenizer's
// whole-line path, any other through its fields; both feed one state
// machine, so a step may span lines read either way.
func ReadLimited(r io.Reader, lim cnf.ParseLimits) (*Proof, error) {
	lim = lim.WithDefaults()
	t := cnf.NewTokenizer(r, lim.MaxBytes)
	rd := &textReader{lim: lim}
	var buf [256]int64 // LineInts' values, on the stack for most lines
	vals := buf[:0]
	for {
		var ok bool
		if vals, ok = t.LineInts(vals[:0]); ok {
			if k, err := rd.line(vals); err != nil {
				if err == errQuote {
					err = rd.value(vals[k], t.LineField(k))
				}
				return nil, err
			}
			continue
		}
		tok, err := nextToken(t)
		if err != nil {
			return nil, err
		}
		if tok == nil {
			return rd.end()
		}
		if err := rd.field(tok); err != nil {
			return nil, err
		}
	}
}

// textState is where a text proof's reader stands within a step.
type textState uint8

const (
	wantID    textState = iota // the next field begins a step
	wantKind                   // after the id: "d", or the first literal
	inClause                   // an addition's literals
	inHints                    // an addition's hints
	inDeleted                  // a deletion's IDs
)

// textReader is ReadLimited's state machine.
type textReader struct {
	lim   cnf.ParseLimits
	steps stepList
	st    textState
	s     Step // the step in progress
	lits  cnf.Slab[cnf.Lit]
	ids   cnf.Slab[int64] // hints and deleted IDs
}

// errQuote is value's answer, with no change made, when its error quotes
// the field and it was not given the field's text.
var errQuote = errors.New("lrat: the field's text is needed")

// field takes one field read through the tokenizer's field path.
func (r *textReader) field(tok []byte) error {
	if r.st == wantKind && string(tok) == "d" {
		r.s.Del = true
		r.st = inDeleted
		return nil
	}
	v, ok := cnf.ParseInt(tok)
	if !ok {
		if r.st == wantID && r.steps.n >= r.lim.MaxClauses {
			return &cnf.LimitError{What: "steps", Limit: int64(r.lim.MaxClauses)}
		}
		return r.bad(tok)
	}
	return r.value(v, tok)
}

// bad reports the field tok as malformed where the reader stands.
func (r *textReader) bad(tok []byte) error {
	what := "literal"
	switch r.st {
	case wantID:
		what = "id"
	case inHints:
		what = "hint"
	case inDeleted:
		what = "deleted id"
	}
	return fmt.Errorf("%w: step %d: bad %s %q", cnf.ErrMalformed, r.steps.n, what, tok)
}

// line takes the values of a line the whole-line path read. A literal or
// hint that adds to the step in progress is taken inline, every other
// value by value; on an error it returns the index of the value at fault.
func (r *textReader) line(vals []int64) (int, error) {
	lim := &r.lim
	for k, v := range vals {
		switch {
		case r.st == inClause && v != 0 && v <= int64(lim.MaxVars) && v >= -int64(lim.MaxVars) &&
			r.lits.Len() < lim.MaxClauseLen:
			r.lits.Append(cnf.FromDimacs(int(v)))
		case r.st == inHints && v != 0 && v <= lim.MaxID && -v <= lim.MaxID && r.ids.Len() < lim.MaxHints:
			r.ids.Append(v)
		default:
			if err := r.value(v, nil); err != nil {
				return k, err
			}
		}
	}
	return 0, nil
}

// value takes one integer field, v, whose text is tok. The whole-line path
// passes no text; value then answers errQuote where its error would quote
// the field.
func (r *textReader) value(v int64, tok []byte) error {
	lim := &r.lim
	switch r.st {
	case wantID:
		if r.steps.n >= lim.MaxClauses {
			return &cnf.LimitError{What: "steps", Limit: int64(lim.MaxClauses)}
		}
		if v <= 0 {
			if tok == nil {
				return errQuote
			}
			return r.bad(tok)
		}
		if v > lim.MaxID {
			return &cnf.LimitError{What: "id", Limit: lim.MaxID}
		}
		r.s = Step{ID: v}
		r.st = wantKind
	case wantKind, inClause:
		// Literals until 0; the field after the id is the first literal
		// (or the clause terminator).
		r.st = inClause
		if v == 0 {
			r.s.C = r.lits.Cut()
			r.st = inHints
			return nil
		}
		if v > int64(lim.MaxVars) || v < -int64(lim.MaxVars) {
			return &cnf.LimitError{What: "variables", Limit: int64(lim.MaxVars)}
		}
		if r.lits.Len() >= lim.MaxClauseLen {
			return &cnf.LimitError{What: "clause length", Limit: int64(lim.MaxClauseLen)}
		}
		r.lits.Append(cnf.FromDimacs(int(v)))
	case inHints:
		if v == 0 {
			r.s.Hints = r.ids.Cut()
			r.steps.add(r.s)
			r.st = wantID
			return nil
		}
		if v > lim.MaxID || -v > lim.MaxID {
			return &cnf.LimitError{What: "id", Limit: lim.MaxID}
		}
		if r.ids.Len() >= lim.MaxHints {
			return &cnf.LimitError{What: "hints", Limit: int64(lim.MaxHints)}
		}
		r.ids.Append(v)
	case inDeleted:
		if v < 0 {
			if tok == nil {
				return errQuote
			}
			return r.bad(tok)
		}
		if v == 0 {
			r.s.Deleted = r.ids.Cut()
			r.steps.add(r.s)
			r.st = wantID
			return nil
		}
		if v > lim.MaxID {
			return &cnf.LimitError{What: "id", Limit: lim.MaxID}
		}
		if r.ids.Len() >= lim.MaxHints {
			return &cnf.LimitError{What: "hints", Limit: int64(lim.MaxHints)}
		}
		r.ids.Append(v)
	}
	return nil
}

// end finishes the proof at a clean end of input.
func (r *textReader) end() (*Proof, error) {
	why := ""
	switch r.st {
	case wantID:
		return r.steps.proof(), nil
	case wantKind:
		why = "truncated after id"
	case inClause:
		why = "unterminated clause"
	case inHints:
		why = "unterminated hints"
	case inDeleted:
		why = "unterminated deletion"
	}
	return nil, fmt.Errorf("%w: step %d: %s", cnf.ErrMalformed, r.steps.n, why)
}

// nextToken returns the next field of a text proof that is not part of a
// comment, or nil at the end of input, with the reason the input ended if
// it was not clean. A field starting with 'c' begins a comment running to
// the end of its line, wherever on the line it stands: no valid LRAT field
// starts with 'c'.
func nextToken(t *cnf.Tokenizer) ([]byte, error) {
	for {
		tok := t.Next()
		if tok == nil {
			if err := t.Err(); err != nil {
				return nil, cnf.ReadErr(err, "read")
			}
			return nil, nil
		}
		if tok[0] != 'c' {
			return tok, nil
		}
		t.SkipLine()
	}
}

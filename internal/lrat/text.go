package lrat

import (
	"bufio"
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
// cnf.ErrLimit.
func ReadLimited(r io.Reader, lim cnf.ParseLimits) (*Proof, error) {
	lim = lim.WithDefaults()
	t := cnf.NewTokenizer(r, lim.MaxBytes)
	p := &Proof{}
	var (
		lits cnf.Slab[cnf.Lit]
		ids  cnf.Slab[int64] // hints and deleted IDs
	)
	for {
		tok, err := nextToken(t)
		if err != nil {
			return nil, err
		}
		if tok == nil {
			return p, nil
		}
		if len(p.Steps) >= lim.MaxClauses {
			return nil, &cnf.LimitError{What: "steps", Limit: int64(lim.MaxClauses)}
		}
		id, ok := cnf.ParseInt(tok)
		if !ok || id <= 0 {
			return nil, fmt.Errorf("%w: step %d: bad id %q", cnf.ErrMalformed, len(p.Steps), tok)
		}
		if id > lim.MaxID {
			return nil, &cnf.LimitError{What: "id", Limit: lim.MaxID}
		}
		s := Step{ID: id}

		if tok, err = nextToken(t); err != nil {
			return nil, err
		}
		if tok == nil {
			return nil, fmt.Errorf("%w: step %d: truncated after id", cnf.ErrMalformed, len(p.Steps))
		}
		if string(tok) == "d" {
			s.Del = true
			for {
				if tok, err = nextToken(t); err != nil {
					return nil, err
				}
				if tok == nil {
					return nil, fmt.Errorf("%w: step %d: unterminated deletion", cnf.ErrMalformed, len(p.Steps))
				}
				d, ok := cnf.ParseInt(tok)
				if !ok || d < 0 {
					return nil, fmt.Errorf("%w: step %d: bad deleted id %q", cnf.ErrMalformed, len(p.Steps), tok)
				}
				if d == 0 {
					break
				}
				if d > lim.MaxID {
					return nil, &cnf.LimitError{What: "id", Limit: lim.MaxID}
				}
				if ids.Len() >= lim.MaxHints {
					return nil, &cnf.LimitError{What: "hints", Limit: int64(lim.MaxHints)}
				}
				ids.Append(d)
			}
			s.Deleted = ids.Cut()
			p.addStep(s)
			continue
		}

		// Addition: literals until 0, then hints until 0. The current token
		// is the first literal (or the clause terminator).
		for {
			d, ok := cnf.ParseInt(tok)
			if !ok {
				return nil, fmt.Errorf("%w: step %d: bad literal %q", cnf.ErrMalformed, len(p.Steps), tok)
			}
			if d == 0 {
				break
			}
			if d > int64(lim.MaxVars) || d < -int64(lim.MaxVars) {
				return nil, &cnf.LimitError{What: "variables", Limit: int64(lim.MaxVars)}
			}
			if lits.Len() >= lim.MaxClauseLen {
				return nil, &cnf.LimitError{What: "clause length", Limit: int64(lim.MaxClauseLen)}
			}
			lits.Append(cnf.FromDimacs(int(d)))
			if tok, err = nextToken(t); err != nil {
				return nil, err
			}
			if tok == nil {
				return nil, fmt.Errorf("%w: step %d: unterminated clause", cnf.ErrMalformed, len(p.Steps))
			}
		}
		s.C = lits.Cut()
		for {
			if tok, err = nextToken(t); err != nil {
				return nil, err
			}
			if tok == nil {
				return nil, fmt.Errorf("%w: step %d: unterminated hints", cnf.ErrMalformed, len(p.Steps))
			}
			h, ok := cnf.ParseInt(tok)
			if !ok {
				return nil, fmt.Errorf("%w: step %d: bad hint %q", cnf.ErrMalformed, len(p.Steps), tok)
			}
			if h == 0 {
				break
			}
			if h > lim.MaxID || -h > lim.MaxID {
				return nil, &cnf.LimitError{What: "id", Limit: lim.MaxID}
			}
			if ids.Len() >= lim.MaxHints {
				return nil, &cnf.LimitError{What: "hints", Limit: int64(lim.MaxHints)}
			}
			ids.Append(h)
		}
		s.Hints = ids.Cut()
		p.addStep(s)
	}
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

package proof

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

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
// classes to distinct outcomes. Lines may be of any length.
func ReadLimited(r io.Reader, lim Limits) (*Trace, error) {
	p := textReader{lim: lim.withDefaults(), t: New(), line: 1}
	p.t.Resolutions = nil
	br := bufio.NewReaderSize(newCappedReader(r, p.lim.MaxBytes), 1<<16)
	for {
		chunk, err := br.ReadSlice('\n')
		if perr := p.scan(chunk); perr != nil {
			return nil, perr
		}
		if err == nil || err == bufio.ErrBufferFull {
			continue
		}
		// The input ends here, cleanly or not: finish its last line first,
		// so a syntax error in it is reported ahead of a read error.
		if perr := p.endLine(); perr != nil {
			return nil, perr
		}
		if err != io.EOF {
			return nil, err
		}
		break
	}
	if len(p.lits) > p.start {
		return nil, fmt.Errorf("%w: last clause not terminated by 0", ErrMalformed)
	}
	if p.sawRes {
		p.t.Resolutions = p.res
	}
	return p.t, nil
}

// Literal slabs start small, so a short trace allocates little, and double
// up to slabMax literals.
const (
	slabMin = 1 << 10
	slabMax = 1 << 16
)

// spaceByte marks the ASCII bytes unicode.IsSpace accepts; a token holding
// any other white-space rune is split by textReader.token.
var spaceByte = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

// textReader is ReadLimited's tokenizer state. A line is a sequence of
// fields separated by white space; a line whose first field starts with
// 'c' is a comment, every other field is a DIMACS literal or the 0 that
// ends a clause. Clauses are carved out of a shared literal slab.
type textReader struct {
	lim  Limits
	t    *Trace
	line int    // 1-based number of the line being scanned
	tok  []byte // a token split across ReadSlice chunks

	nField  int    // fields seen on the current line
	comment bool   // the current line is a comment
	resWord bool   // the comment's second field is "res"
	resTok  []byte // the comment's third field: a "c res" count

	lits  []cnf.Lit // slab; lits[start:] is the clause being read
	start int

	pendingRes int64
	sawRes     bool
	res        []int64 // per-clause counts, kept once a "c res" was seen
}

// scan tokenizes one ReadSlice chunk. A chunk may end inside a token (when
// the line is longer than the buffer, or at the end of input); the partial
// token waits in tok for the next chunk or for endLine.
func (p *textReader) scan(b []byte) error {
	for i := 0; i < len(b); {
		c := b[i]
		if spaceByte[c] {
			if err := p.flushTok(); err != nil {
				return err
			}
			if c == '\n' {
				if err := p.endLine(); err != nil {
					return err
				}
			}
			i++
			continue
		}
		j := i + 1
		for j < len(b) && !spaceByte[b[j]] {
			j++
		}
		if j == len(b) || len(p.tok) > 0 {
			p.tok = append(p.tok, b[i:j]...)
			if j == len(b) {
				return nil
			}
			i = j
			continue
		}
		if err := p.token(b[i:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// flushTok handles the token pending in tok, if any.
func (p *textReader) flushTok() error {
	if len(p.tok) == 0 {
		return nil
	}
	err := p.token(p.tok)
	p.tok = p.tok[:0]
	return err
}

// token handles a run of non-ASCII-space bytes. Runs holding non-ASCII
// bytes are split at Unicode white space, as strings.Fields would.
func (p *textReader) token(tok []byte) error {
	for _, c := range tok {
		if c >= utf8.RuneSelf {
			for _, f := range bytes.FieldsFunc(tok, unicode.IsSpace) {
				if err := p.field(f); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return p.field(tok)
}

// field handles one white-space separated field of the current line.
func (p *textReader) field(f []byte) error {
	idx := p.nField
	p.nField++
	if idx == 0 && f[0] == 'c' {
		p.comment = true
	}
	if p.comment {
		switch idx {
		case 1:
			p.resWord = string(f) == "res"
		case 2:
			p.resTok = append(p.resTok[:0], f...)
		}
		return nil
	}
	d, err := strconv.Atoi(string(f))
	if err != nil {
		return fmt.Errorf("%w: line %d: unexpected token %q", ErrMalformed, p.line, f)
	}
	if d == 0 {
		if len(p.t.Clauses) >= p.lim.MaxClauses {
			return &LimitError{What: "clauses", Limit: int64(p.lim.MaxClauses)}
		}
		var c cnf.Clause
		if n := len(p.lits); n > p.start {
			c = p.lits[p.start:n:n]
		}
		p.t.Clauses = append(p.t.Clauses, c)
		if p.sawRes {
			p.res = append(p.res, p.pendingRes)
		}
		p.start = len(p.lits)
		p.pendingRes = 0
		return nil
	}
	if d > p.lim.MaxVar || d < -p.lim.MaxVar {
		return &LimitError{What: "variable", Limit: int64(p.lim.MaxVar)}
	}
	n := len(p.lits) - p.start
	if n >= p.lim.MaxClauseLen {
		return &LimitError{What: "clause length", Limit: int64(p.lim.MaxClauseLen)}
	}
	if len(p.lits) == cap(p.lits) {
		// Start a new slab and move the clause in progress into it; the
		// clauses already carved keep the old one alive.
		size := min(max(2*cap(p.lits), slabMin), slabMax)
		slab := make([]cnf.Lit, n, max(size, 2*n))
		copy(slab, p.lits[p.start:])
		p.lits, p.start = slab, 0
	}
	p.lits = append(p.lits, cnf.FromDimacs(d))
	return nil
}

// endLine finishes the current line: a pending token, then a "c res <n>"
// annotation if the line was one.
func (p *textReader) endLine() error {
	if err := p.flushTok(); err != nil {
		return err
	}
	if p.comment && p.nField == 3 && p.resWord {
		n, err := strconv.ParseInt(string(p.resTok), 10, 64)
		if err != nil {
			return fmt.Errorf("%w: line %d: bad res count %q", ErrMalformed, p.line, p.resTok)
		}
		if !p.sawRes {
			// Earlier clauses get 0, as the package comment promises.
			p.sawRes = true
			if n := len(p.t.Clauses); n > 0 {
				p.res = make([]int64, n, n+1)
			}
		}
		p.pendingRes = n
	}
	p.line++
	p.nField, p.comment, p.resWord = 0, false, false
	return nil
}

// ReadString parses a trace held in a string.
func ReadString(s string) (*Trace, error) { return Read(strings.NewReader(s)) }

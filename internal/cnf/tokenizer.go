package cnf

import (
	"bytes"
	"encoding/binary"
	"io"
	"unicode"
	"unicode/utf8"
)

// Tokenizer is the input layer every proof and formula reader shares: a
// refilling byte buffer over an io.Reader that enforces a byte budget and
// hands out either white-space separated fields (the text formats) or raw
// bytes and uvarints (the binary formats).
//
// A field is a maximal run of runes that unicode.IsSpace rejects, as
// strings.Fields would split; a field is never split at a buffer refill,
// and lines may be of any length. Which fields are comments is for each
// format to say: the tokenizer only reports a field's line and whether it
// began that line, and can skip or return the rest of a line.
//
// The byte budget is hard: once more than the budget has been read, the
// input ends with the budget's *LimitError, never with a silent
// EOF that would make an oversized input look like a well-formed prefix.
// Bytes within the budget are all handed out first, so a syntax error in
// them is reported ahead of the budget error.
type Tokenizer struct {
	r    io.Reader
	left int64 // bytes the budget still allows
	over error // returned once the input runs past the budget

	buf      []byte
	pos, end int   // buf[pos:end] is buffered and not yet handed out
	err      error // why the input ended (io.EOF when cleanly); sticky

	line  int  // 1-based line of the next unread byte
	bol   bool // the next field would be the first on its line
	first bool // the field Next last returned began its line
}

// tokenizerBuf is the initial buffer size; the buffer grows only to hold a
// single field, or a line RestOfLine returns, longer than it.
const tokenizerBuf = 1 << 16

// NewTokenizer reads r, allowing at most maxBytes bytes of it; an input
// with more fails with the *LimitError of the "bytes" limit.
func NewTokenizer(r io.Reader, maxBytes int64) *Tokenizer {
	return &Tokenizer{r: r, left: maxBytes, over: &LimitError{What: "bytes", Limit: maxBytes},
		buf: make([]byte, tokenizerBuf), line: 1, bol: true}
}

// Err reports why the input ended: nil at a clean end of input, else the
// budget error or the underlying reader's error.
func (t *Tokenizer) Err() error {
	if t.err == io.EOF {
		return nil
	}
	return t.err
}

// Line is the 1-based line of the field Next or NextInLine last returned.
func (t *Tokenizer) Line() int { return t.line }

// FirstOnLine reports whether the field Next last returned began its line.
func (t *Tokenizer) FirstOnLine() bool { return t.first }

// fill reads more input behind the buffered bytes, moving them to the front
// of the buffer and growing it when they fill it. It reports false once the
// input has ended (t.err is then set) and nothing is buffered.
func (t *Tokenizer) fill() bool {
	if t.err != nil {
		return t.pos < t.end
	}
	if t.pos > 0 {
		t.end = copy(t.buf, t.buf[t.pos:t.end])
		t.pos = 0
	}
	if t.end == len(t.buf) {
		t.buf = append(t.buf, make([]byte, len(t.buf))...)
	}
	for empty := 0; ; empty++ {
		var n int
		var err error
		if t.left == 0 {
			// Exactly at the budget: an input that ends here is legal, one
			// with more bytes is not, so probe a single byte.
			var probe [1]byte
			if n, err = t.r.Read(probe[:]); n > 0 {
				n, err = 0, t.over
			}
		} else {
			room := t.buf[t.end:]
			if int64(len(room)) > t.left {
				room = room[:t.left]
			}
			n, err = t.r.Read(room)
			t.left -= int64(n)
		}
		t.end += n
		if err == nil && n == 0 && empty < 100 {
			continue
		}
		if err == nil && n == 0 {
			err = io.ErrNoProgress
		}
		t.err = err
		return t.pos < t.end
	}
}

// Byte classes: a field byte, an ASCII space, or the first byte of a
// multi-byte (or invalid) rune that only decoding can classify.
const (
	fieldByte = iota
	spaceByte
	runeByte
)

var byteClass = func() (c [256]uint8) {
	for b := utf8.RuneSelf; b < 256; b++ {
		c[b] = runeByte
	}
	for _, b := range []byte(" \t\n\v\f\r") { // the ASCII bytes unicode.IsSpace accepts
		c[b] = spaceByte
	}
	return c
}()

// skipSpace moves to the next field. It reports false at the end of input,
// and at the end of the line when inLine is set, leaving the '\n' unread.
func (t *Tokenizer) skipSpace(inLine bool) bool {
	for {
		buf, i := t.buf[:t.end], t.pos
		for ; i < len(buf) && byteClass[buf[i]] == spaceByte; i++ {
			if buf[i] == '\n' {
				if inLine {
					t.pos = i
					return false
				}
				t.line++
				t.bol = true
			}
		}
		t.pos = i
		if i < len(buf) {
			if byteClass[buf[i]] == fieldByte {
				return true
			}
			if utf8.FullRune(buf[i:]) || t.err != nil {
				r, w := utf8.DecodeRune(buf[i:])
				if !unicode.IsSpace(r) {
					return true
				}
				t.pos += w
				continue
			}
			// Refill to see the whole rune.
		}
		if !t.fill() {
			return false
		}
	}
}

// fieldLen is the length of the field at the start of b. It reports done
// false when the field may run on past b; n is then how far it reaches
// for sure.
func fieldLen(b []byte, atEOF bool) (n int, done bool) {
	for {
		for n < len(b) && byteClass[b[n]] == fieldByte {
			n++
		}
		if n == len(b) {
			return n, atEOF
		}
		if byteClass[b[n]] == spaceByte {
			return n, true
		}
		if !utf8.FullRune(b[n:]) && !atEOF {
			return n, false
		}
		r, w := utf8.DecodeRune(b[n:])
		if unicode.IsSpace(r) {
			return n, true
		}
		n += w
	}
}

// field returns the field starting at t.pos, refilling while it may run on.
func (t *Tokenizer) field() []byte {
	n := 0
	for {
		m, done := fieldLen(t.buf[t.pos+n:t.end], t.err != nil)
		n += m
		if done {
			break
		}
		t.fill()
	}
	f := t.buf[t.pos : t.pos+n : t.pos+n]
	t.pos += n
	return f
}

// Next returns the next field, or nil at the end of input (see Err). The
// field is valid until the next call on t.
func (t *Tokenizer) Next() []byte { return t.scan(false) }

// NextInLine returns the next field on the current line, or nil at the end
// of the line or of the input. The field is valid until the next call on t.
func (t *Tokenizer) NextInLine() []byte { return t.scan(true) }

func (t *Tokenizer) scan(inLine bool) []byte {
	if !t.skipSpace(inLine) {
		return nil
	}
	t.first, t.bol = t.bol, false
	// Fast path: an ASCII field that ends inside the buffer.
	buf, i := t.buf[:t.end], t.pos
	j := i
	for j < len(buf) && byteClass[buf[j]] == fieldByte {
		j++
	}
	if j < len(buf) && byteClass[buf[j]] == spaceByte {
		t.pos = j
		return buf[i:j:j]
	}
	return t.field()
}

// SkipLine discards the rest of the current line, its '\n' included,
// without buffering it.
func (t *Tokenizer) SkipLine() {
	for {
		if i := bytes.IndexByte(t.buf[t.pos:t.end], '\n'); i >= 0 {
			t.pos += i + 1
			t.line++
			t.bol = true
			return
		}
		t.pos = t.end
		if !t.fill() {
			return
		}
	}
}

// RestOfLine returns the rest of the current line, without its '\n', and
// moves past it. The result is valid until the next call on t.
func (t *Tokenizer) RestOfLine() []byte {
	n := 0
	for {
		if i := bytes.IndexByte(t.buf[t.pos+n:t.end], '\n'); i >= 0 {
			rest := t.buf[t.pos : t.pos+n+i]
			t.pos += n + i + 1
			t.line++
			t.bol = true
			return rest
		}
		n = t.end - t.pos
		if !t.fill() || t.end-t.pos == n {
			rest := t.buf[t.pos:t.end]
			t.pos = t.end
			return rest
		}
	}
}

// ReadByte returns the next byte; at the end of input the error is io.EOF,
// the budget error or the reader's error.
func (t *Tokenizer) ReadByte() (byte, error) {
	if t.pos == t.end && !t.fill() {
		return 0, t.err
	}
	c := t.buf[t.pos]
	t.pos++
	return c, nil
}

// Read copies buffered bytes into p, so that io.ReadFull works on t.
func (t *Tokenizer) Read(p []byte) (int, error) {
	if t.pos == t.end && !t.fill() {
		return 0, t.err
	}
	n := copy(p, t.buf[t.pos:t.end])
	t.pos += n
	return n, nil
}

// Uvarint decodes an unsigned varint with binary.ReadUvarint's results and
// errors, straight from the buffer when a whole varint is in it.
func (t *Tokenizer) Uvarint() (uint64, error) {
	if t.end-t.pos >= binary.MaxVarintLen64 {
		if u, n := binary.Uvarint(t.buf[t.pos:t.end]); n > 0 {
			t.pos += n
			return u, nil
		}
	}
	// Near the end of the buffer, or an overflow: let the standard decoder
	// read byte by byte and report its own error.
	return binary.ReadUvarint(t)
}

// ParseInt parses a field as a decimal integer, accepting exactly what
// strconv.ParseInt(s, 10, 64) accepts: an optional sign, then one or more
// digits, with a value that fits in an int64.
func ParseInt(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	const limit = 1 << 63 // magnitude of math.MinInt64
	var u uint64
	for i, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		// Eighteen digits cannot overflow; past them, check every step.
		if i >= 18 && (u > limit/10 || u*10+uint64(d) > limit) {
			return 0, false
		}
		u = u*10 + uint64(d)
	}
	if neg {
		return -int64(u), true
	}
	if u == limit {
		return 0, false
	}
	return int64(u), true
}

package cnf

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/bits"
	"unicode"
	"unicode/utf8"
)

// Tokenizer is the input layer every proof and formula reader shares: a
// refilling byte buffer over an io.Reader that enforces a byte budget and
// hands out either white-space separated fields (the text formats) or the
// buffered bytes themselves (the binary format, decoded in place).
//
// A field is a maximal run of runes that unicode.IsSpace rejects, as
// strings.Fields would split; a field is never split at a buffer refill,
// and lines may be of any length. Which fields are comments is for each
// format to say: the tokenizer only reports a field's line and whether it
// began that line, and can skip or return the rest of a line.
//
// LineInts is the text readers' fast path: it scans a whole line of plain
// integers in one loop and leaves every other line to the field path.
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

	line   int  // 1-based line of the next unread byte
	lineAt int  // where the line LineInts last consumed began in buf
	slow   int  // the line LineInts last declined
	bol    bool // the next field would be the first on its line
	first  bool // the field Next last returned began its line
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

// maxLineDigits is the most digits a field may have on the whole-line path:
// eighteen digits fit an int64 with either sign, so the tight loop needs no
// overflow check. A longer field goes to Next and ParseInt.
const maxLineDigits = 18

// LineInts is the whole-line fast path of the text readers. When the rest
// of the current line holds only plain integers — an optional '-' and 1 to
// maxLineDigits ASCII digits — separated by ASCII blanks, it appends their
// values to dst and moves past the line, its '\n' included. Those are
// exactly the fields Next would return there, and the values ParseInt
// gives for them. Otherwise it reports false and consumes nothing, and
// keeps declining until the line ends: a comment or keyword, a '+' sign, a
// longer field, a non-ASCII rune, or a line longer than the buffer goes
// through Next. It refills the buffer to see a line's end, but never grows
// it for a line, so lines may still be of any length.
func (t *Tokenizer) LineInts(dst []int64) ([]int64, bool) {
	n := len(dst)
	// buf[:i] has been scanned, and dst holds the values of its fields; a
	// refill moves the buffered bytes but keeps i's place among them.
	i := 0
	for t.line != t.slow {
		buf := t.buf[t.pos:t.end]
		for {
			// The common field, an optional '-' and one to seven digits
			// followed by a space or the '\n', is read with no branch per
			// byte; any other goes the long way below.
			for len(buf)-i > 8 {
				neg := int(minus[buf[i]])
				x := binary.LittleEndian.Uint64(buf[i+neg:])
				k, v := digits8(x)
				if k == 0 || k == 8 {
					break
				}
				sep := byte(x >> (8 * k))
				if sep != ' ' && sep != '\n' {
					break
				}
				dst = append(dst, v^-int64(neg)+int64(neg))
				i += neg + k + 1
				if sep == '\n' {
					t.lineAt, t.pos = t.pos, t.pos+i
					t.line++
					t.bol = true
					return dst, true
				}
			}
			for i < len(buf) && byteClass[buf[i]] == spaceByte && buf[i] != '\n' {
				i++
			}
			if i == len(buf) {
				break
			}
			if buf[i] == '\n' {
				t.lineAt, t.pos = t.pos, t.pos+i+1
				t.line++
				t.bol = true
				return dst, true
			}
			start := i
			neg := buf[i] == '-'
			if neg {
				i++
			}
			j := i
			var v int64
			for ; i < len(buf) && buf[i]-'0' <= 9; i++ {
				v = v*10 + int64(buf[i]-'0')
			}
			if i == len(buf) && t.err == nil {
				i = start // the field may go on past the buffer
				break
			}
			if i == j || i-j > maxLineDigits || i < len(buf) && byteClass[buf[i]] != spaceByte {
				t.slow = t.line
				return dst[:n], false
			}
			if neg {
				v = -v
			}
			dst = append(dst, v)
		}
		// The line runs to the end of the buffer.
		switch {
		case t.err != nil && i > 0: // the input's last line, with no '\n'
			t.lineAt, t.pos = t.pos, t.end
			return dst, true
		case t.err != nil: // the end of input
			return dst, false
		case t.pos == 0 && t.end == len(t.buf): // a line longer than the buffer
			t.slow = t.line
			return dst[:n], false
		}
		t.fill()
	}
	return dst[:n], false
}

// minus is 1 for '-' and 0 for every other byte.
var minus = [256]uint8{'-': 1}

// digits8 reads the run of ASCII digits that begins x, eight input bytes
// loaded little-endian, without a branch per digit: it returns the run's
// length and, when that is 1 to 8, its value.
func digits8(x uint64) (int, int64) {
	const ones, high = 0x0101010101010101, 0xF0F0F0F0F0F0F0F0
	// A byte of notDigit is zero just when the byte of x is '0'..'9': its
	// high nibble is 3, and stays 3 when 6 is added. A carry out of a byte
	// of 0xFA or more only reaches the bytes after it.
	notDigit := (x&high ^ 0x30*ones) | ((x+6*ones)&high ^ 0x30*ones)
	n := bits.TrailingZeros64(notDigit) >> 3
	// Move the digits to the top bytes, the first the most significant,
	// with zero bytes above them, then combine pairs, quads and halves.
	x = x << ((64 - 8*n) & 63) & (0x0F * ones)
	x = x * (10<<8 + 1) >> 8 & 0x00FF00FF00FF00FF
	x = x * (100<<16 + 1) >> 16 & 0x0000FFFF0000FFFF
	x = x * (10000<<32 + 1) >> 32
	return n, int64(x)
}

// LineField returns field k of the line LineInts last consumed, for an
// error message that quotes it. It is valid only until the next call on t.
func (t *Tokenizer) LineField(k int) []byte {
	return bytes.Fields(t.buf[t.lineAt:t.pos])[k]
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

// Buffered returns the bytes read but not yet handed out, for a binary
// reader that decodes in place. They are valid until the next call on t
// other than Discard.
func (t *Tokenizer) Buffered() []byte { return t.buf[t.pos:t.end] }

// Discard hands out the first n bytes of Buffered.
func (t *Tokenizer) Discard(n int) { t.pos += n }

// Refill reads until more than n bytes are buffered or the input has ended
// (see Err), and reports whether more than n bytes are buffered. The buffer
// grows to hold them.
func (t *Tokenizer) Refill(n int) bool {
	for t.end-t.pos <= n && t.err == nil {
		t.fill()
	}
	return t.end-t.pos > n
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

package cnf

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// fields drains a tokenizer, recording each field with its line and
// whether it began that line.
func fields(t *Tokenizer) []string {
	var out []string
	for f := t.Next(); f != nil; f = t.Next() {
		s := strconv.Itoa(t.Line()) + ":" + string(f)
		if t.FirstOnLine() {
			s = "^" + s
		}
		out = append(out, s)
	}
	return out
}

func TestTokenizerFields(t *testing.T) {
	for in, want := range map[string][]string{
		"1 2 0\n-3 0\n":                  {"^1:1", "1:2", "1:0", "^2:-3", "2:0"},
		"1 2":                            {"^1:1", "1:2"}, // last field without a newline
		"1\t-2 0\r\n3 0\r\n":             {"^1:1", "1:-2", "1:0", "^2:3", "2:0"},
		"1\v2\f3\u00a04\u20035\u30006\n": {"^1:1", "1:2", "1:3", "1:4", "1:5", "1:6"},
		" c x\n\n  7":                    {"^1:c", "1:x", "^3:7"},
		"aéb \xff\n":                     {"^1:aéb", "1:\xff"}, // other runes, invalid UTF-8
		"":                               nil,
		" \n \n":                         nil,
	} {
		for name, r := range map[string]io.Reader{
			"whole":    strings.NewReader(in),
			"one byte": iotest.OneByteReader(strings.NewReader(in)),
		} {
			tz := NewTokenizer(r, 1<<20, errors.New("over"))
			if got := fields(tz); !reflect.DeepEqual(got, want) || tz.Err() != nil {
				t.Errorf("%s %q: got %q, err %v; want %q", name, in, got, tz.Err(), want)
			}
		}
	}
}

// TestTokenizerStraddlesRefill: a field that crosses the end of the buffer,
// or is longer than the whole buffer, comes out whole.
func TestTokenizerStraddlesRefill(t *testing.T) {
	long := strings.Repeat("7", 3*tokenizerBuf)
	in := strings.Repeat(" ", tokenizerBuf-2) + "12345  " + long + "\n8"
	tz := NewTokenizer(strings.NewReader(in), 1<<30, errors.New("over"))
	want := []string{"^1:12345", "1:" + long, "^2:8"}
	if got := fields(tz); !reflect.DeepEqual(got, want) || tz.Err() != nil {
		t.Fatalf("got %d fields (err %v), want %d", len(got), tz.Err(), len(want))
	}
	// A two-byte rune split by the refill is still a separator.
	in = strings.Repeat(" ", tokenizerBuf-2) + "1\u00a02"
	if got := fields(NewTokenizer(strings.NewReader(in), 1<<30, nil)); !reflect.DeepEqual(got, []string{"^1:1", "1:2"}) {
		t.Fatalf("split separator: got %q", got)
	}
}

func TestTokenizerLines(t *testing.T) {
	tz := NewTokenizer(strings.NewReader("c skip me 1 2\np cnf  3 1 \r\n4 5\n"), 1<<20, nil)
	if f := tz.Next(); string(f) != "c" {
		t.Fatalf("first field %q", f)
	}
	tz.SkipLine()
	if f := tz.Next(); string(f) != "p" || tz.Line() != 2 {
		t.Fatalf("second line starts %q on line %d", f, tz.Line())
	}
	if rest := tz.RestOfLine(); string(rest) != " cnf  3 1 \r" {
		t.Fatalf("RestOfLine = %q", rest)
	}
	if f := tz.NextInLine(); string(f) != "4" || !tz.FirstOnLine() {
		t.Fatalf("third line starts %q", f)
	}
	if f := tz.NextInLine(); string(f) != "5" {
		t.Fatalf("then %q", f)
	}
	if f := tz.NextInLine(); f != nil {
		t.Fatalf("NextInLine crossed the line end: %q", f)
	}
	if f := tz.Next(); f != nil || tz.Err() != nil || tz.Line() != 4 {
		t.Fatalf("at the end: %q, err %v, line %d", f, tz.Err(), tz.Line())
	}
}

// TestTokenizerBudget: input that ends exactly at the budget is clean; with
// one byte more, every byte within the budget is handed out and then the
// input ends with the budget error.
func TestTokenizerBudget(t *testing.T) {
	over := errors.New("over")
	tz := NewTokenizer(strings.NewReader("12 34"), 5, over)
	if got := fields(tz); len(got) != 2 || tz.Err() != nil {
		t.Fatalf("at the budget: %q, %v", got, tz.Err())
	}
	tz = NewTokenizer(strings.NewReader("12 345"), 5, over)
	if got := fields(tz); !reflect.DeepEqual(got, []string{"^1:12", "1:34"}) || tz.Err() != over {
		t.Fatalf("over the budget: %q, %v", got, tz.Err())
	}
	tz = NewTokenizer(strings.NewReader("abcdef"), 3, over)
	if b, err := io.ReadAll(tz); string(b) != "abc" || err != over {
		t.Fatalf("Read over the budget: %q, %v", b, err)
	}
	boom := errors.New("boom")
	tz = NewTokenizer(iotest.DataErrReader(iotest.ErrReader(boom)), 10, over)
	if f := tz.Next(); f != nil || tz.Err() != boom {
		t.Fatalf("reader error: %q, %v", f, tz.Err())
	}
}

func TestTokenizerUvarint(t *testing.T) {
	var in []byte
	vals := []uint64{0, 1, 127, 128, 1 << 20, 1<<64 - 1}
	for i := 0; i < 3000; i++ { // enough to cross a refill
		in = appendUvarint(in, vals[i%len(vals)])
	}
	tz := NewTokenizer(bytes.NewReader(in), 1<<20, nil)
	for i := 0; i < 3000; i++ {
		if u, err := tz.Uvarint(); err != nil || u != vals[i%len(vals)] {
			t.Fatalf("varint %d = %d, %v", i, u, err)
		}
	}
	if _, err := tz.Uvarint(); err != io.EOF {
		t.Fatalf("at the end: %v", err)
	}
	for in, want := range map[string]error{
		"\x80": io.ErrUnexpectedEOF,
		"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02":         errors.New("binary: varint overflows a 64-bit integer"),
		"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01": errors.New("binary: varint overflows a 64-bit integer"),
	} {
		_, err := NewTokenizer(strings.NewReader(in), 1<<20, nil).Uvarint()
		if err == nil || err.Error() != want.Error() {
			t.Errorf("Uvarint(%q) err = %v, want %v", in, err, want)
		}
	}
}

func appendUvarint(b []byte, u uint64) []byte {
	for u >= 0x80 {
		b = append(b, byte(u)|0x80)
		u >>= 7
	}
	return append(b, byte(u))
}

// TestParseIntMatchesStrconv: ParseInt accepts exactly what
// strconv.ParseInt(s, 10, 64) accepts, with the same value.
func TestParseIntMatchesStrconv(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "+0", "+3", "-3", "007", "9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809", "18446744073709551616", "99999999999999999999",
		"", "+", "-", "1_000", "0x10", "1e3", " 1", "1 ", "--1", "+-1", "١", strings.Repeat("0", 40) + "12",
	} {
		want, werr := strconv.ParseInt(s, 10, 64)
		got, ok := ParseInt([]byte(s))
		if ok != (werr == nil) || got != want && ok {
			t.Errorf("ParseInt(%q) = %d, %v; strconv gives %d, %v", s, got, ok, want, werr)
		}
	}
}

func TestSlabCutsDoNotAlias(t *testing.T) {
	var s Slab[int64]
	var runs [][]int64
	for i := 0; i < 3*slabMax; i++ {
		s.Append(int64(i))
		if i%7 == 0 {
			runs = append(runs, s.Cut())
		}
	}
	if s.Cut() == nil || s.Cut() != nil {
		t.Fatal("Cut: want the run in progress, then nil")
	}
	_ = append(runs[0], -1)
	next := int64(1)
	for _, r := range runs[1:] {
		if cap(r) != len(r) || r[0] != next {
			t.Fatalf("run %v: cap %d, want it to start at %d", r, cap(r), next)
		}
		next = r[len(r)-1] + 1
	}
}

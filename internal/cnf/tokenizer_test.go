package cnf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
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
			tz := NewTokenizer(r, 1<<20)
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
	tz := NewTokenizer(strings.NewReader(in), 1<<30)
	want := []string{"^1:12345", "1:" + long, "^2:8"}
	if got := fields(tz); !reflect.DeepEqual(got, want) || tz.Err() != nil {
		t.Fatalf("got %d fields (err %v), want %d", len(got), tz.Err(), len(want))
	}
	// A two-byte rune split by the refill is still a separator.
	in = strings.Repeat(" ", tokenizerBuf-2) + "1\u00a02"
	if got := fields(NewTokenizer(strings.NewReader(in), 1<<30)); !reflect.DeepEqual(got, []string{"^1:1", "1:2"}) {
		t.Fatalf("split separator: got %q", got)
	}
}

func TestTokenizerLines(t *testing.T) {
	tz := NewTokenizer(strings.NewReader("c skip me 1 2\np cnf  3 1 \r\n4 5\n"), 1<<20)
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
	over := func(err error, limit int64) bool {
		le, ok := err.(*LimitError)
		return ok && *le == LimitError{What: "bytes", Limit: limit}
	}
	tz := NewTokenizer(strings.NewReader("12 34"), 5)
	if got := fields(tz); len(got) != 2 || tz.Err() != nil {
		t.Fatalf("at the budget: %q, %v", got, tz.Err())
	}
	tz = NewTokenizer(strings.NewReader("12 345"), 5)
	if got := fields(tz); !reflect.DeepEqual(got, []string{"^1:12", "1:34"}) || !over(tz.Err(), 5) {
		t.Fatalf("over the budget: %q, %v", got, tz.Err())
	}
	tz = NewTokenizer(strings.NewReader("abcdef"), 3)
	if b, err := io.ReadAll(tz); string(b) != "abc" || !over(err, 3) {
		t.Fatalf("Read over the budget: %q, %v", b, err)
	}
	boom := errors.New("boom")
	tz = NewTokenizer(iotest.DataErrReader(iotest.ErrReader(boom)), 10)
	if f := tz.Next(); f != nil || tz.Err() != boom {
		t.Fatalf("reader error: %q, %v", f, tz.Err())
	}
}

// TestTokenizerRefill: Buffered, Discard and Refill hand out the input
// exactly once, across refills and past the initial buffer size, and
// Refill reports the end of input.
func TestTokenizerRefill(t *testing.T) {
	in := make([]byte, 3*tokenizerBuf+17)
	for i := range in {
		in[i] = byte(i * 7)
	}
	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(in),
		"one byte": iotest.OneByteReader(bytes.NewReader(in)),
	} {
		tz := NewTokenizer(r, 1<<30)
		var got []byte
		for want := 1; tz.Refill(0); want = want*3 + 1 {
			tz.Refill(want) // more than the buffer holds at first
			b := tz.Buffered()
			k := min(len(b), want)
			got = append(got, b[:k]...)
			tz.Discard(k)
		}
		if !bytes.Equal(got, in) || tz.Err() != nil {
			t.Fatalf("%s: got %d bytes, err %v; want %d", name, len(got), tz.Err(), len(in))
		}
	}
	tz := NewTokenizer(strings.NewReader("abc"), 2)
	if tz.Refill(2) || string(tz.Buffered()) != "ab" {
		t.Fatalf("over the budget: buffered %q", tz.Buffered())
	}
	if le, ok := tz.Err().(*LimitError); !ok || le.What != "bytes" {
		t.Fatalf("over the budget: %v", tz.Err())
	}
}

// lineValues drains a tokenizer as the text readers do: through LineInts
// where it accepts a line, else through Next, recording each field's line
// and value (or text, when ParseInt refuses it) and, in fast, whether
// LineInts read it.
func lineValues(t *Tokenizer) (out []string, fast int) {
	var vals []int64
	for {
		line := t.Line()
		var ok bool
		if vals, ok = t.LineInts(vals[:0]); ok {
			for k, v := range vals {
				if got, _ := ParseInt(t.LineField(k)); got != v {
					panic("LineField disagrees with LineInts")
				}
				out = append(out, strconv.Itoa(line)+":"+strconv.FormatInt(v, 10))
			}
			fast += len(vals)
			continue
		}
		f := t.Next()
		if f == nil {
			return out, fast
		}
		s := string(f)
		if v, ok := ParseInt(f); ok {
			s = strconv.FormatInt(v, 10)
		}
		out = append(out, strconv.Itoa(t.Line())+":"+s)
	}
}

// TestTokenizerLineInts: the whole-line path gives the fields, lines and
// values the field path gives, however the input is chunked, and takes
// only lines of plain integers.
func TestTokenizerLineInts(t *testing.T) {
	long := strings.Repeat("12 ", tokenizerBuf)
	for _, tc := range []struct {
		in   string
		fast int // values LineInts reads in a whole read
	}{
		{"1 2 0\n-3 0\n", 5},
		{"1 2", 2},
		{"-0 007 1\t-2\v0\f\r\n\n  \n3", 6},
		// The field path reads a declined line and the first field after
		// it, which may begin the next line.
		{"+3 4\n5 6\n", 1},
		{"1234567890123456789 1\n5 6\n", 1},
		{"123456789012345678 1\n", 2},
		{"1\u00a02\n3 4\n", 1},
		{"c 1 2\n1 c 2\n4 5\n", 1},
		{"1 - 2\n1-2\n--1\n-\n", 0},
		// A line that ends with the first buffer, and one that does not fit.
		{strings.Repeat(" ", tokenizerBuf-4) + "1 2\n3 4\n", 4},
		{strings.Repeat(" ", tokenizerBuf-3) + "1 2\n3 4\n", 1},
		{long + "0\n1 2\n", 1},
		{"", 0},
	} {
		for name, r := range map[string]io.Reader{
			"whole":    strings.NewReader(tc.in),
			"one byte": iotest.OneByteReader(strings.NewReader(tc.in)),
		} {
			var want []string
			for _, f := range fields(NewTokenizer(strings.NewReader(tc.in), 1<<30)) {
				f = strings.TrimPrefix(f, "^")
				line, text, _ := strings.Cut(f, ":")
				if v, ok := ParseInt([]byte(text)); ok {
					text = strconv.FormatInt(v, 10)
				}
				want = append(want, line+":"+text)
			}
			tz := NewTokenizer(r, 1<<30)
			got, fast := lineValues(tz)
			if !reflect.DeepEqual(got, want) || tz.Err() != nil {
				t.Errorf("%s %.40q: got %.200q, err %v; want %.200q", name, tc.in, got, tz.Err(), want)
			}
			if name == "whole" && fast != tc.fast {
				t.Errorf("%.40q: LineInts read %d values, want %d", tc.in, fast, tc.fast)
			}
		}
	}
}

// TestDigits8: the branch-free digit reader agrees with strconv on every
// run length, whatever bytes follow the run.
func TestDigits8(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	after := []byte{' ', '\n', '/', ':', '-', 0, 0x7f, 0x80, 0xfa, 0xff}
	for i := 0; i < 20000; i++ {
		n := rng.Intn(10)
		b := make([]byte, 0, 16)
		for len(b) < n {
			b = append(b, byte('0'+rng.Intn(10)))
		}
		for len(b) < 16 {
			b = append(b, after[rng.Intn(len(after))])
		}
		k, v := digits8(binary.LittleEndian.Uint64(b))
		if k != min(n, 8) {
			t.Fatalf("digits8(%q): run of %d, want %d", b, k, min(n, 8))
		}
		if want, _ := strconv.ParseInt(string(b[:n]), 10, 64); n > 0 && n <= 8 && v != want {
			t.Fatalf("digits8(%q) = %d, want %d", b, v, want)
		}
	}
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

package lrat

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/cnf"
)

// The fuzz targets pin the LRAT parser hardening contract on arbitrary
// bytes: never panic, never hang, fail only with the typed error classes —
// and when input does parse, survive a write/re-read round trip unchanged.

// fuzzLimits keeps worst-case allocations small enough for the fuzzer to
// drive millions of executions.
var fuzzLimits = cnf.ParseLimits{
	MaxClauses:   1 << 12,
	MaxClauseLen: 1 << 10,
	MaxHints:     1 << 12,
	MaxVars:      1 << 16,
	MaxID:        1 << 30,
	MaxBytes:     1 << 20,
}

func FuzzParseLRAT(f *testing.F) {
	f.Add([]byte("4 1 0 1 2 0\n5 0 3 4 0\n"))
	f.Add([]byte("4 d 1 2 0\n"))
	f.Add([]byte("c comment\n4 -1 2 0 -3 1 0\n"))
	f.Add([]byte("4 1 0 1 2\n"))
	f.Add([]byte("99999999999999999999 0 1 0\n"))
	// The tokenizer's corner cases: a field across the first refill of its
	// 64 KiB buffer, a last field with no newline, CRLF, \v and U+00A0 as
	// separators, a comment at EOF, signed literals.
	f.Add(append(bytes.Repeat([]byte(" "), 1<<16-2), "400 -1 0 1 0\n"...))
	f.Add([]byte("4 1 0 1 2 0\n5 0 3 4 0"))
	f.Add([]byte("4 1 0 1 2 0\r\n5 d 4 0\r\n"))
	f.Add([]byte("4\v1\u00a00 1\f2 0\n"))
	f.Add([]byte("4 1 0 1 2 0 c trailing\nc comment at EOF"))
	f.Add([]byte("4 +3 -0 +1 0\n"))
	f.Add([]byte("4 -9223372036854775808 0 1 0\n"))
	// The whole-line path's edges: a line whose '\n' is the last byte of
	// the first buffer, a line longer than the buffer, a 19-digit field,
	// -0, 007 and +3 (and an id of -0, quoted in its error), tab, CR and
	// U+00A0, a step over three lines, a deletion over two, mid-line
	// comments.
	f.Add(append(bytes.Repeat([]byte(" "), 1<<16-len("4 1 0 1 2 0\n")), "4 1 0 1 2 0\n5 0 4 0\n"...))
	f.Add([]byte("4 1" + strings.Repeat(" ", 70000) + "0 1 2 0\n5 0 4 0\n"))
	f.Add([]byte("4 1234567890123456789 0 1 0\n5 123456789012345678 0 1 0\n"))
	f.Add([]byte("007 -0 0 1 0\n5 +3 0 4 0\n-0 0 1 0\n"))
	f.Add([]byte("4\t-1\r\n0 1\u00a02 0\n5 0 4 0\n"))
	f.Add([]byte("4 1\n0 1\n2 0\n5 d\n4 0\n6 d 1 -2 0\n"))
	f.Add([]byte("4 1 c 0\n0 1 2 0 c x\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadLimited(bytes.NewReader(data), fuzzLimits)
		// The result may not depend on how the input is chunked.
		p1, err1 := ReadLimited(iotest.OneByteReader(bytes.NewReader(data)), fuzzLimits)
		if !reflect.DeepEqual(p1, p) || fmt.Sprint(err1) != fmt.Sprint(err) {
			t.Fatalf("read one byte at a time: %v, %v; read whole: %v, %v", p1, err1, p, err)
		}
		if err != nil {
			if !errors.Is(err, cnf.ErrMalformed) && !errors.Is(err, cnf.ErrLimit) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			t.Fatalf("writing parsed proof: %v", err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading own output: %v", err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the proof: %+v, %+v before", back.Steps, p.Steps)
		}
	})
}

func FuzzParseLRATBinary(f *testing.F) {
	// Seed with a well-formed encoding so the fuzzer starts past the
	// magic/version gate, plus raw junk around the header.
	seed := &Proof{Steps: []Step{
		{ID: 4, C: mkClause(1), Hints: []int64{1, 2}},
		{ID: 4, Del: true, Deleted: []int64{1, 2}},
		{ID: 5, Hints: []int64{3, 4}},
	}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, seed); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	f.Add([]byte("CLRT"))
	f.Add([]byte("CLRT\x01\x00a\xff\xff\xff\xff"))
	f.Add([]byte("CLRT\x02\x00"))
	f.Add(straddlingBinary())
	f.Add(append(bytes.Clone(buf.Bytes()[:buf.Len()-1]), 0x85)) // a last varint cut short
	// A step ending where the first buffer does, a step over the buffer's
	// end, uvarints padded with a 0 byte (refused), one that overflows, a
	// step past the hints limit.
	f.Add(binaryEndingAt(1 << 16))
	f.Add(binaryEndingAt(1<<16 + 3))
	f.Add([]byte("CLRT\x01\x00a\x84\x00\x02\x00\x02\x00"))
	f.Add([]byte("CLRT\x01\x00d\x04\x81\x80\x00\x00"))
	f.Add([]byte("CLRT\x01\x00a\x04\x00" + strings.Repeat("\xff", 9) + "\x02\x00"))
	f.Add([]byte("CLRT\x01\x00a\x04\x00" + strings.Repeat("\x02", 1<<12+1) + "\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadBinaryLimited(bytes.NewReader(data), fuzzLimits)
		// The result may not depend on how the input is chunked.
		p1, err1 := ReadBinaryLimited(iotest.OneByteReader(bytes.NewReader(data)), fuzzLimits)
		if !reflect.DeepEqual(p1, p) || fmt.Sprint(err1) != fmt.Sprint(err) {
			t.Fatalf("read one byte at a time: %v, %v; read whole: %v, %v", p1, err1, p, err)
		}
		if err != nil {
			if !errors.Is(err, cnf.ErrMalformed) && !errors.Is(err, cnf.ErrLimit) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, p); err != nil {
			t.Fatalf("writing parsed proof: %v", err)
		}
		back, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading own output: %v", err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the proof: %+v, %+v before", back.Steps, p.Steps)
		}
	})
}

// binaryEndingAt is a binary proof of deletion steps, within fuzzLimits,
// whose last step ends at byte end.
func binaryEndingAt(end int) []byte {
	b := []byte("CLRT\x01\x00")
	for len(b) < end {
		k := min(end-len(b)-3, 2048) // a step of k one-byte IDs takes k+3 bytes
		if rest := end - len(b) - (k + 3); rest > 0 && rest < 3 {
			k -= 3
		}
		b = append(b, 'd', 4)
		b = append(b, bytes.Repeat([]byte{1}, k)...)
		b = append(b, 0)
	}
	return b
}

// straddlingBinary is a binary proof, within fuzzLimits, in which a
// two-byte varint starts at the last byte of the tokenizer's first 64 KiB
// buffer, so that decoding it needs a refill.
func straddlingBinary() []byte {
	b := []byte("CLRT\x01\x00")
	const start = 1<<16 - 1 // where the straddling varint begins
	for rest := start - 2 - len(b); rest > 0; rest = start - 2 - len(b) {
		// A deletion step of k one-byte IDs takes k+3 bytes.
		k := min(rest-3, 2048)
		if rest-(k+3) > 0 && rest-(k+3) < 3 {
			k -= 3
		}
		b = append(b, 'd', 4)
		b = append(b, bytes.Repeat([]byte{1}, k)...)
		b = append(b, 0)
	}
	return append(b, 'd', 4, 0x81, 0x01, 0)
}

package cnf

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzParseCNF pins the DIMACS parser's hardening contract on arbitrary
// bytes: never panic, fail only with the typed error classes, and produce
// formulas whose literals all fit the declared variable range — the
// invariant the BCP engines index on without re-checking — and that read
// back unchanged from their own DIMACS output.
func FuzzParseCNF(f *testing.F) {
	f.Add([]byte("p cnf 3 2\n1 -2 3 0\n-1 2 0\n"))
	f.Add([]byte("c comment\n%\n1 2 0\n"))
	f.Add([]byte("p cnf 0 0\n"))
	f.Add([]byte("1 -9999999999999 0\n"))
	f.Add([]byte("1 -9223372036854775808 0\n"))
	// The tokenizer's corner cases: a field across the first refill of its
	// 64 KiB buffer, a last field with no newline, CRLF, \v and U+00A0 as
	// separators, a comment at EOF, signed literals.
	f.Add(append(bytes.Repeat([]byte(" "), 1<<16-2), "123 -45 0\n"...))
	f.Add([]byte("p cnf 2 1\n1 -2 0"))
	f.Add([]byte("p cnf 2 1\r\n1 -2 0\r\n"))
	f.Add([]byte("1\v-2\u00a03 0\n"))
	f.Add([]byte("1 2 0\nc comment at EOF"))
	f.Add([]byte("+3 -0 1 0\n"))
	// The whole-line path's edges: a line whose '\n' is the last byte of
	// the first buffer, a line longer than the buffer, a 19-digit field,
	// -0, 007 and +3, tab, CR and U+00A0, a clause over three lines, a
	// mid-line comment.
	f.Add(append(bytes.Repeat([]byte(" "), 1<<16-len("1 -2 0\n")), "1 -2 0\n3 0\n"...))
	f.Add([]byte("1" + strings.Repeat(" ", 70000) + "-2 0\n3 0\n"))
	f.Add([]byte("1234567890123456789 0\n123456789012345678 0\n"))
	f.Add([]byte("-0 007 0\n+3 1 0\n"))
	f.Add([]byte("1\t-2\r\n3\u00a04 0\n5 0\n"))
	f.Add([]byte("p cnf 3 1\n1\n-2\n3 0\n"))
	f.Add([]byte("1 2 0\n1 c 2 0\n"))
	limits := ParseLimits{MaxClauses: 1 << 12, MaxClauseLen: 1 << 10, MaxVars: 1 << 16, MaxBytes: 1 << 20}
	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := ParseDimacsLimited(bytes.NewReader(data), limits)
		// The result may not depend on how the input is chunked.
		parsed1, err1 := ParseDimacsLimited(iotest.OneByteReader(bytes.NewReader(data)), limits)
		if !reflect.DeepEqual(parsed1, parsed) || fmt.Sprint(err1) != fmt.Sprint(err) {
			t.Fatalf("read one byte at a time: %v, %v; read whole: %v, %v", parsed1, err1, parsed, err)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrLimit) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		for _, c := range parsed.Clauses {
			for _, l := range c {
				if v := int(l.Var()); v < 0 || v >= parsed.NumVars {
					t.Fatalf("literal %v outside variable range %d", l, parsed.NumVars)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteDimacs(&buf, parsed); err != nil {
			t.Fatalf("writing parsed formula: %v", err)
		}
		back, err := ParseDimacsString(buf.String())
		if err != nil {
			t.Fatalf("re-reading own output: %v", err)
		}
		if !reflect.DeepEqual(back, parsed) {
			t.Fatalf("round trip changed the formula:\n%v\nread back as\n%v", parsed, back)
		}
	})
}

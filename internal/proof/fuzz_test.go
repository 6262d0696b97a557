package proof

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

// The fuzz targets pin the parser hardening contract on arbitrary bytes:
// never panic, never hang, fail only with the typed error classes — and
// when input does parse, survive a write/re-read round trip unchanged.

func FuzzReadTrace(f *testing.F) {
	f.Add([]byte("1 2 0\n-1 0\n0\n"))
	f.Add([]byte("c comment\nc res 3\n1 -2 3 0\n"))
	f.Add([]byte("1 2\n"))
	f.Add([]byte("-9999999999999 0\n"))
	f.Add([]byte("1 2 0 -3 0 4 0\n5\n-6\n0\n"))    // several clauses on a line; one spanning lines
	f.Add([]byte("1\t-2 0\r\n\t3 0\r\n"))          // tabs and CRLF
	f.Add([]byte("+3 -0 -1 0\n"))                  // signed tokens
	f.Add([]byte("c res 4x\n1 0\n"))               // bad res count
	f.Add([]byte("c res 2\n1 0\nc res 3\n-1 2 3")) // unterminated last clause
	// The whole-line path's edges: a line whose '\n' is the last byte of
	// the first buffer, a line longer than the buffer, a 19-digit field,
	// -0, 007 and +3, tab, CR and U+00A0, a mid-line comment.
	f.Add(append(bytes.Repeat([]byte(" "), 1<<16-len("1 -2 0\n")), "1 -2 0\n3 0\n"...))
	f.Add([]byte("1" + strings.Repeat(" ", 70000) + "-2 0\n3 0\n"))
	f.Add([]byte("1234567890123456789 0\n123456789012345678 0\n"))
	f.Add([]byte("-0 007 0\n+3 1 0\n"))
	f.Add([]byte("1\t-2\r\n3\u00a04 0\n5 0\n"))
	f.Add([]byte("1 2 0\n1 c 2 0\n"))
	limits := cnf.ParseLimits{MaxClauses: 1 << 12, MaxClauseLen: 1 << 10, MaxVars: 1 << 16, MaxBytes: 1 << 20}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadLimited(bytes.NewReader(data), limits)
		// The result may not depend on how the input is chunked.
		tr1, err1 := ReadLimited(iotest.OneByteReader(bytes.NewReader(data)), limits)
		if !reflect.DeepEqual(tr1, tr) || fmt.Sprint(err1) != fmt.Sprint(err) {
			t.Fatalf("read one byte at a time: %v, %v; read whole: %v, %v", tr1, err1, tr, err)
		}
		if err != nil {
			if !errors.Is(err, cnf.ErrMalformed) && !errors.Is(err, cnf.ErrLimit) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("writing parsed trace: %v", err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading own output: %v", err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("round trip changed clause count: %d != %d", back.Len(), tr.Len())
		}
	})
}

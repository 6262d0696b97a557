package proof

import (
	"bytes"
	"errors"
	"testing"

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
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadLimited(bytes.NewReader(data),
			cnf.ParseLimits{MaxClauses: 1 << 12, MaxClauseLen: 1 << 10, MaxVars: 1 << 16, MaxBytes: 1 << 20})
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

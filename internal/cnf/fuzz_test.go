package cnf

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzParseCNF pins the DIMACS parser's hardening contract on arbitrary
// bytes: never panic, fail only with the typed error classes, and produce
// formulas whose literals all fit the declared variable range — the
// invariant the BCP engines index on without re-checking.
func FuzzParseCNF(f *testing.F) {
	f.Add([]byte("p cnf 3 2\n1 -2 3 0\n-1 2 0\n"))
	f.Add([]byte("c comment\n%\n1 2 0\n"))
	f.Add([]byte("p cnf 0 0\n"))
	f.Add([]byte("1 -9999999999999 0\n"))
	f.Add([]byte("1 -9223372036854775808 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := ParseDimacsLimited(bytes.NewReader(data),
			ParseLimits{MaxClauses: 1 << 12, MaxClauseLen: 1 << 10, MaxVars: 1 << 16, MaxBytes: 1 << 20})
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
		if back.NumClauses() != parsed.NumClauses() || back.NumVars != parsed.NumVars {
			t.Fatalf("round trip changed shape: %d/%d clauses, %d/%d vars",
				back.NumClauses(), parsed.NumClauses(), back.NumVars, parsed.NumVars)
		}
	})
}

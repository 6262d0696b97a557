package drat

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/proof"
)

// fuzzLimits keeps fuzz inputs cheap while still reaching every limit.
var fuzzLimits = proof.Limits{MaxClauses: 1 << 12, MaxClauseLen: 1 << 10, MaxVar: 1 << 16, MaxBytes: 1 << 20}

// FuzzReadDRUP pins the DRUP reader's hardening contract on arbitrary
// bytes: never panic, fail only with the typed error classes, keep every
// literal inside the variable limit — and when input does parse, survive a
// Write/Read round trip unchanged.
func FuzzReadDRUP(f *testing.F) {
	f.Add([]byte("9223372036854775807 0\n"))
	f.Add([]byte("-9223372036854775808 0\n"))
	f.Add([]byte("c comment\nd 1 2 0\n1 2\n"))
	seed := &Proof{}
	seed.Add(cl(1, -2))
	seed.Delete(cl(1, -2))
	seed.Add(cl(-3))
	seed.Add(nil)
	var buf bytes.Buffer
	if err := Write(&buf, seed); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := readLimited(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			if !errors.Is(err, proof.ErrMalformed) && !errors.Is(err, proof.ErrLimit) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		for _, s := range p.Steps {
			for _, l := range s.C {
				if v := int(l.Var()); v < 0 || v >= fuzzLimits.MaxVar {
					t.Fatalf("literal %v outside the variable limit", l)
				}
			}
		}
		var out bytes.Buffer
		if err := Write(&out, p); err != nil {
			t.Fatalf("writing parsed proof: %v", err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("re-reading own output: %v", err)
		}
		if back.Fingerprint() != p.Fingerprint() {
			t.Fatalf("round trip changed the proof: %d steps, %d before", back.Len(), p.Len())
		}
	})
}

func TestReadLimits(t *testing.T) {
	for _, tc := range []struct{ in, what string }{
		{"70000 0\n", "variable"},
		{"-9223372036854775808 0\n", "variable"},
		{strings.Repeat("1 ", 1<<10+1) + "0\n", "clause length"},
		{strings.Repeat("1 0\n", 1<<12+1), "clauses"},
		{strings.Repeat("c padding\n", 1<<17), "bytes"},
	} {
		_, err := readLimited(strings.NewReader(tc.in), fuzzLimits)
		var le *proof.LimitError
		if !errors.As(err, &le) || le.What != tc.what {
			t.Errorf("input %.20q...: err = %v, want the %s limit", tc.in, err, tc.what)
		}
	}
	// The defaults apply to Read: an int64-sized literal must not wrap
	// into the int32 literal encoding.
	if _, err := Read(strings.NewReader("9223372036854775807 0\n")); !errors.Is(err, proof.ErrLimit) {
		t.Errorf("Read of an int64-sized literal: err = %v, want proof.ErrLimit", err)
	}
	if _, err := Read(strings.NewReader("1 x 0\n")); !errors.Is(err, proof.ErrMalformed) {
		t.Errorf("Read of a bad token: err = %v, want proof.ErrMalformed", err)
	}
}

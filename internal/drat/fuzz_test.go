package drat

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cnf"
)

// fuzzLimits keeps fuzz inputs cheap while still reaching every limit.
var fuzzLimits = cnf.ParseLimits{MaxClauses: 1 << 12, MaxClauseLen: 1 << 10, MaxVars: 1 << 16, MaxBytes: 1 << 20}

// FuzzReadDRUP pins the DRUP reader's hardening contract on arbitrary
// bytes: never panic, fail only with the typed error classes, keep every
// literal inside the variable limit — and when input does parse, survive a
// Write/Read round trip unchanged.
func FuzzReadDRUP(f *testing.F) {
	f.Add([]byte("9223372036854775807 0\n"))
	f.Add([]byte("-9223372036854775808 0\n"))
	f.Add([]byte("c comment\nd 1 2 0\n1 2\n"))
	// The tokenizer's corner cases: a field across the first refill of its
	// 64 KiB buffer, a last field with no newline, CRLF, \v and U+00A0 as
	// separators (also after "d"), a comment at EOF, signed literals.
	f.Add(append(bytes.Repeat([]byte(" "), 1<<16-2), "123 -45 0\n"...))
	f.Add([]byte("1 -2 0\nd 1 -2 0"))
	f.Add([]byte("1 -2 0\r\nd 1 -2 0\r\n"))
	f.Add([]byte("1\v-2\u00a03 0\nd\t1\v-2\u00a03 0\n"))
	f.Add([]byte("1 2 0\nc comment at EOF"))
	f.Add([]byte("+3 -0 1 0\nd +3 -0\n"))
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
		p, err := ReadLimited(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			if !errors.Is(err, cnf.ErrMalformed) && !errors.Is(err, cnf.ErrLimit) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		for _, s := range p.Steps {
			for _, l := range s.C {
				if v := int(l.Var()); v < 0 || v >= fuzzLimits.MaxVars {
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
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the proof: %+v, %+v before", back.Steps, p.Steps)
		}
	})
}

func TestReadLimits(t *testing.T) {
	for _, tc := range []struct{ in, what string }{
		{"70000 0\n", "variables"},
		{"-9223372036854775808 0\n", "variables"},
		{strings.Repeat("1 ", 1<<10+1) + "0\n", "clause length"},
		{strings.Repeat("1 0\n", 1<<12+1), "clauses"},
		{strings.Repeat("c padding\n", 1<<17), "bytes"},
	} {
		_, err := ReadLimited(strings.NewReader(tc.in), fuzzLimits)
		var le *cnf.LimitError
		if !errors.As(err, &le) || le.What != tc.what {
			t.Errorf("input %.20q...: err = %v, want the %s limit", tc.in, err, tc.what)
		}
	}
	// The defaults apply to Read: an int64-sized literal must not wrap
	// into the int32 literal encoding.
	if _, err := Read(strings.NewReader("9223372036854775807 0\n")); !errors.Is(err, cnf.ErrLimit) {
		t.Errorf("Read of an int64-sized literal: err = %v, want cnf.ErrLimit", err)
	}
	if _, err := Read(strings.NewReader("1 x 0\n")); !errors.Is(err, cnf.ErrMalformed) {
		t.Errorf("Read of a bad token: err = %v, want cnf.ErrMalformed", err)
	}
}

// TestReadSeparators: a step's fields, "d" included, are separated by any
// white space — tabs, \v, CR and Unicode blanks as well as spaces.
func TestReadSeparators(t *testing.T) {
	p, err := Read(strings.NewReader("1\v-2 0\r\nd\t1\u00a0-2 0\nd 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := &Proof{Steps: []Step{{C: cl(1, -2)}, {Del: true, C: cl(1, -2)}, {Del: true}}}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("got %+v, want %+v", p.Steps, want.Steps)
	}
}

// TestReadByteBudget: input that ends exactly at the budget parses; with one
// byte more the reader stops at the budget and reports the bytes limit.
func TestReadByteBudget(t *testing.T) {
	in := "1 2 0\n-1 0\n"
	lim := fuzzLimits
	lim.MaxBytes = int64(len(in))
	if _, err := ReadLimited(strings.NewReader(in), lim); err != nil {
		t.Fatalf("at the budget: %v", err)
	}
	// The byte past the budget would complete "0x", a bad token; it is
	// never read.
	lim.MaxBytes = int64(len("1 2 0\n-1 0"))
	var le *cnf.LimitError
	if _, err := ReadLimited(strings.NewReader("1 2 0\n-1 0x\n"), lim); !errors.As(err, &le) || le.What != "bytes" {
		t.Fatalf("over the budget: err = %v, want the bytes limit", err)
	}
}

// blanks is an endless run of spaces.
type blanks struct{}

func (blanks) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestReadLineLongerThan64MiB: the reader has no line-length cap. A valid
// proof whose lines exceed 64 MiB (here a comment line and a step padded
// with blanks) must parse, not fail as a line scanner capped at 1<<26 bytes
// did.
func TestReadLineLongerThan64MiB(t *testing.T) {
	if testing.Short() {
		t.Skip("reads 130 MiB")
	}
	const pad = 65 << 20
	in := io.MultiReader(
		strings.NewReader("1 2 0\nc"),
		io.LimitReader(blanks{}, pad),
		strings.NewReader("a long comment\nd 1"),
		io.LimitReader(blanks{}, pad),
		strings.NewReader("2 0\n2 0\n"),
	)
	got, err := Read(in)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	want := &Proof{Steps: []Step{{C: cl(1, 2)}, {Del: true, C: cl(1, 2)}, {C: cl(2)}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got.Steps, want.Steps)
	}
}

// TestReadAllocsBounded: steps are carved from shared slabs, so allocations
// grow with the slab count, not with the number of literals.
func TestReadAllocsBounded(t *testing.T) {
	for _, n := range []int{10_000, 40_000} {
		var b strings.Builder
		for i := 0; i < n; i++ {
			if i%4 == 3 {
				b.WriteString("d ")
			}
			fmt.Fprintf(&b, "%d -%d %d 0\n", i%1000+1, (i*7)%1000+1, (i*13)%1000+1)
		}
		in := b.String()
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Read(strings.NewReader(in)); err != nil {
				t.Fatal(err)
			}
		})
		if tokens := 4 * n; allocs > float64(tokens)/1000 {
			t.Errorf("%d steps: %.0f allocations for %d tokens", n, allocs, tokens)
		}
	}
}

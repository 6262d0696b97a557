package cnf

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestParseDimacsLimitedMaxVars(t *testing.T) {
	// Magnitudes past the bound must be refused before FromDimacs narrows
	// them into the int32 Var encoding — including ones that would have
	// wrapped negative and panicked a downstream index.
	for _, in := range []string{
		"p cnf 2 1\n9000000000 0\n",
		"p cnf 2 1\n-9000000000 0\n",
		"70000 0\n",
	} {
		_, err := ParseDimacsLimited(strings.NewReader(in), ParseLimits{MaxVars: 65536})
		var le *LimitError
		if !errors.As(err, &le) || !errors.Is(err, ErrLimit) {
			t.Fatalf("ParseDimacsLimited(%q) err = %v, want *LimitError", in, err)
		}
		if le.What != "variables" {
			t.Fatalf("ParseDimacsLimited(%q): tripped %q limit, want variables", in, le.What)
		}
	}
	// A header declaring an absurd variable count is refused up front,
	// before any per-variable allocation downstream.
	if _, err := ParseDimacsLimited(strings.NewReader("p cnf 1000000 1\n1 0\n"),
		ParseLimits{MaxVars: 65536}); !errors.Is(err, ErrLimit) {
		t.Fatalf("header variable limit: err = %v", err)
	}
}

func TestParseDimacsLimitedOtherLimits(t *testing.T) {
	if _, err := ParseDimacsLimited(strings.NewReader("1 0\n2 0\n3 0\n"),
		ParseLimits{MaxClauses: 2}); !errors.Is(err, ErrLimit) {
		t.Fatalf("clause-count limit: err = %v", err)
	}
	if _, err := ParseDimacsLimited(strings.NewReader("p cnf 2 5\n1 0\n"),
		ParseLimits{MaxClauses: 2}); !errors.Is(err, ErrLimit) {
		t.Fatalf("header clause limit: err = %v", err)
	}
	if _, err := ParseDimacsLimited(strings.NewReader("1 2 3 4 0\n"),
		ParseLimits{MaxClauseLen: 3}); !errors.Is(err, ErrLimit) {
		t.Fatalf("clause-length limit: err = %v", err)
	}
	if _, err := ParseDimacsLimited(strings.NewReader("1 2 0\n-1 0\n"),
		ParseLimits{MaxBytes: 4}); !errors.Is(err, ErrLimit) {
		t.Fatalf("byte limit: err = %v", err)
	}
}

func TestParseDimacsMalformedTyped(t *testing.T) {
	cases := []string{
		"p dnf 2 1\n1 0\n", // bad header kind
		"p cnf x 1\n1 0\n", // non-numeric header
		"1 two 0\n",        // garbage token
		"1 2\n",            // unterminated final clause
		"p cnf 2 3\n1 0\n", // fewer clauses than declared
	}
	for _, in := range cases {
		if _, err := ParseDimacsString(in); !errors.Is(err, ErrMalformed) {
			t.Fatalf("ParseDimacsString(%q) err = %v, want ErrMalformed", in, err)
		}
	}
}

// TestParseDimacsPercentEndsFormula: a '%' line (the SATLIB trailer) ends
// the formula. Reading on would take the trailer's "0" for an empty clause
// and make a satisfiable formula trivially refutable.
func TestParseDimacsPercentEndsFormula(t *testing.T) {
	for _, in := range []string{
		"p cnf 2 1\n1 2 0\n%\n0\n",
		"p cnf 2 1\n1 2 0\n  %\n0\n\ngarbage\n",
		"p cnf 2 1\n1 2 0\n%garbage\n",
		"p cnf 2 1\n1 2 0\n",
	} {
		f, err := ParseDimacsString(in)
		if err != nil || f.NumClauses() != 1 || len(f.Clauses[0]) != 2 {
			t.Errorf("ParseDimacsString(%q) = %v, %v; want the one clause 1 2", in, f, err)
		}
	}
	// The trailer does not terminate a clause in progress.
	if _, err := ParseDimacsString("1 2\n%\n0\n"); !errors.Is(err, ErrMalformed) {
		t.Errorf("clause cut off by '%%': err = %v, want ErrMalformed", err)
	}
	// Nor is '%' anything but a syntax error inside a line.
	if _, err := ParseDimacsString("1 2 %\n0\n"); !errors.Is(err, ErrMalformed) {
		t.Errorf("'%%' inside a line: err = %v, want ErrMalformed", err)
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

// TestParseDimacsLineLongerThan64MiB: the parser has no line-length cap. A
// valid formula whose lines exceed 64 MiB must parse, not fail with an
// untyped bufio.ErrTooLong as a line scanner capped at 1<<26 bytes did.
func TestParseDimacsLineLongerThan64MiB(t *testing.T) {
	if testing.Short() {
		t.Skip("reads 130 MiB")
	}
	const pad = 65 << 20
	in := io.MultiReader(
		strings.NewReader("p cnf 2 3\n1 2 0\nc"),
		io.LimitReader(blanks{}, pad),
		strings.NewReader("a long comment\n-1"),
		io.LimitReader(blanks{}, pad),
		strings.NewReader("0\n2 0\n"),
	)
	got, err := ParseDimacs(in)
	if err != nil {
		t.Fatalf("ParseDimacs: %v", err)
	}
	if want := NewFormula(2).Add(1, 2).Add(-1).Add(2); !reflect.DeepEqual(got, want) {
		t.Fatalf("formula = %v, want %v", got, want)
	}
}

// TestParseDimacsAllocsBounded: clauses are carved from shared slabs, so
// allocations grow with the slab count, not with the number of literals.
func TestParseDimacsAllocsBounded(t *testing.T) {
	for _, n := range []int{10_000, 40_000} {
		var b strings.Builder
		fmt.Fprintf(&b, "p cnf 1000 %d\n", n)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%d -%d %d 0\n", i%1000+1, (i*7)%1000+1, (i*13)%1000+1)
		}
		in := b.String()
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ParseDimacsString(in); err != nil {
				t.Fatal(err)
			}
		})
		if tokens := 4 * n; allocs > float64(tokens)/1000 {
			t.Errorf("%d clauses: %.0f allocations for %d tokens", n, allocs, tokens)
		}
	}
}

// totalAlloc returns the bytes fn allocates.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The clause list is sized from the header, which is untrusted: a header
// declaring 2^26 clauses over a one-clause body must cost what the body
// costs, not the 1.6 GB its declared count would size.
func TestParseDimacsPresizeCappedByWhatIsRead(t *testing.T) {
	var err error
	got := totalAlloc(func() { _, err = ParseDimacsString("p cnf 1 67108864\n1 0\n") })
	if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "header declares") {
		t.Fatalf("err = %v, want ErrMalformed for the missing clauses", err)
	}
	if got > 2<<20 {
		t.Fatalf("parse allocated %d bytes for a one-clause body", got)
	}
}

// An accurate header sizes the clause list about once: its slice headers
// cost at most twice their final size, where append's 1.25x growth for
// large slices allocates about five times it.
func TestParseDimacsPresizeAllocatesClauseListOnce(t *testing.T) {
	const n, width = 200_000, 3
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf 1000 %d\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d -%d %d 0\n", i%1000+1, (i*7)%1000+1, (i*13)%1000+1)
	}
	in := b.String()
	var f *Formula
	var err error
	got := totalAlloc(func() { f, err = ParseDimacsString(in) })
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != n {
		t.Fatalf("parsed %d clauses, want %d", f.NumClauses(), n)
	}
	const headers = 24 * n
	// The literal slabs double up to slabMax literals, so they hold at most
	// twice the literals read plus one slab; 64 KiB is the tokenizer buffer.
	const slabs = 2*4*width*n + 4*slabMax + 64<<10
	if got > 2*headers+slabs {
		t.Fatalf("parse allocated %d bytes, want at most %d (2 x %d for clause headers + %d for literals)",
			got, 2*headers+slabs, headers, slabs)
	}
}

// An empty clause list stays nil, as it was before presizing: the DIMACS
// round trip compares formulas with reflect.DeepEqual.
func TestParseDimacsEmptyKeepsNilClauses(t *testing.T) {
	for _, in := range []string{"p cnf 0 0\n", "p cnf 5 0\n", "c only a comment\n", ""} {
		f, err := ParseDimacsString(in)
		if err != nil {
			t.Fatalf("ParseDimacsString(%q): %v", in, err)
		}
		if f.Clauses != nil {
			t.Fatalf("ParseDimacsString(%q).Clauses = %#v, want nil", in, f.Clauses)
		}
	}
}

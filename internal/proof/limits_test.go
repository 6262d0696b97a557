package proof

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

func TestReadLimitedMaxVar(t *testing.T) {
	// A literal whose magnitude parses as int but would overflow the int32
	// Var encoding (or just drive a huge allocation) must be refused, not
	// narrowed into garbage.
	// The most negative int is its own negation, so it needs its own row.
	for _, in := range []string{"9000000000 0\n", "-9000000000 0\n", "70000 0\n", "-9223372036854775808 0\n"} {
		_, err := ReadLimited(strings.NewReader(in), cnf.ParseLimits{MaxVars: 65536})
		var le *cnf.LimitError
		if !errors.As(err, &le) || !errors.Is(err, cnf.ErrLimit) {
			t.Fatalf("ReadLimited(%q) err = %v, want *cnf.LimitError", in, err)
		}
		if le.What != "variables" {
			t.Fatalf("ReadLimited(%q): tripped %q limit, want variables", in, le.What)
		}
	}
}

func TestReadLimitedClauseAndLenLimits(t *testing.T) {
	if _, err := ReadLimited(strings.NewReader("1 0\n2 0\n3 0\n"), cnf.ParseLimits{MaxClauses: 2}); !errors.Is(err, cnf.ErrLimit) {
		t.Fatalf("clause-count limit: err = %v", err)
	}
	if _, err := ReadLimited(strings.NewReader("1 2 3 4 0\n"), cnf.ParseLimits{MaxClauseLen: 3}); !errors.Is(err, cnf.ErrLimit) {
		t.Fatalf("clause-length limit: err = %v", err)
	}
	if _, err := ReadLimited(strings.NewReader("1 2 0\n-1 0\n"), cnf.ParseLimits{MaxBytes: 4}); !errors.Is(err, cnf.ErrLimit) {
		t.Fatalf("byte limit: err = %v", err)
	}
}

func TestReadMalformed(t *testing.T) {
	cases := []string{
		"1 2 three 0\n",  // garbage token
		"1 2\n",          // unterminated final clause
		"c res x\n1 0\n", // bad resolution count
	}
	for _, in := range cases {
		if _, err := ReadString(in); !errors.Is(err, cnf.ErrMalformed) {
			t.Fatalf("ReadString(%q) err = %v, want cnf.ErrMalformed", in, err)
		}
	}
}

func TestReadBinaryMalformed(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		tr := New()
		tr.Resolutions = nil
		tr.Clauses = append(tr.Clauses, cl(1, -2), cl(2))
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := map[string][]byte{
		"empty":        {},
		"short header": valid[:3],
		"bad magic":    append([]byte("XXXX"), valid[4:]...),
		"bad version":  func() []byte { b := bytes.Clone(valid); b[4] = 99; return b }(),
		// Drop only the final 0 terminator: the remaining bytes are NOT a
		// valid prefix, and must not silently parse as one.
		"truncated clause": valid[:len(valid)-1],
	}
	for name, in := range cases {
		if _, err := ReadBinary(bytes.NewReader(in)); !errors.Is(err, cnf.ErrMalformed) {
			t.Errorf("%s: err = %v, want cnf.ErrMalformed", name, err)
		}
	}
}

func TestReadBinaryLimits(t *testing.T) {
	var buf bytes.Buffer
	tr := New()
	tr.Resolutions = nil
	tr.Clauses = append(tr.Clauses, cl(100000, -2), cl(2), cl(-1))
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := ReadBinaryLimited(bytes.NewReader(data), cnf.ParseLimits{MaxVars: 65536}); !errors.Is(err, cnf.ErrLimit) {
		t.Fatalf("variable limit: err = %v", err)
	}
	if _, err := ReadBinaryLimited(bytes.NewReader(data), cnf.ParseLimits{MaxClauses: 2}); !errors.Is(err, cnf.ErrLimit) {
		t.Fatalf("clause-count limit: err = %v", err)
	}
	if _, err := ReadBinaryLimited(bytes.NewReader(data), cnf.ParseLimits{MaxClauseLen: 1}); !errors.Is(err, cnf.ErrLimit) {
		t.Fatalf("clause-length limit: err = %v", err)
	}
	if _, err := ReadBinaryLimited(bytes.NewReader(data), cnf.ParseLimits{MaxBytes: 8}); !errors.Is(err, cnf.ErrLimit) {
		t.Fatalf("byte limit: err = %v", err)
	}

	// Exactly-at-limit input still parses.
	got, err := ReadBinaryLimited(bytes.NewReader(data), cnf.ParseLimits{
		MaxVars: 100000, MaxClauses: 3, MaxClauseLen: 2, MaxBytes: int64(len(data)),
	})
	if err != nil || len(got.Clauses) != 3 {
		t.Fatalf("at-limit parse: err=%v got=%+v", err, got)
	}
}

// TestCappedReaderDistinguishesEOF: the byte budget is hard. Input that
// ends exactly at the budget parses; one byte more is a typed limit error,
// never a silent truncation that would parse as a well-formed prefix.
func TestCappedReaderDistinguishesEOF(t *testing.T) {
	const text = "1 2 0\n-1 0\n"
	var bin bytes.Buffer
	tr := New()
	tr.Resolutions = nil
	tr.Clauses = append(tr.Clauses, cl(1, 2), cl(-1))
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func([]byte, int64) (*Trace, error){
		"text": func(b []byte, n int64) (*Trace, error) {
			return ReadLimited(bytes.NewReader(b), cnf.ParseLimits{MaxBytes: n})
		},
		"binary": func(b []byte, n int64) (*Trace, error) {
			return ReadBinaryLimited(bytes.NewReader(b), cnf.ParseLimits{MaxBytes: n})
		},
	} {
		in := []byte(text)
		if name == "binary" {
			in = bin.Bytes()
		}
		if got, err := read(in, int64(len(in))); err != nil || !reflect.DeepEqual(got.Clauses, tr.Clauses) {
			t.Errorf("%s at the budget: %v, %v", name, got, err)
		}
		var le *cnf.LimitError
		if _, err := read(in, int64(len(in))-1); !errors.As(err, &le) || le.What != "bytes" {
			t.Errorf("%s one byte over the budget: err = %v, want the bytes limit", name, err)
		}
	}
}

// TestBinaryBudgetAtResolutionCount: a byte budget that runs out where a
// resolution count starts is the bytes limit, not a malformed trace.
func TestBinaryBudgetAtResolutionCount(t *testing.T) {
	tr := New()
	tr.Append(cl(1, -2), 3)
	tr.Append(cl(2), 1)
	var bin bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	// Header, then the first clause: its count, two literals and the 0.
	budget := int64(len(binaryMagic) + 2 + 1 + 2 + 1)
	_, err := ReadBinaryLimited(bytes.NewReader(bin.Bytes()), cnf.ParseLimits{MaxBytes: budget})
	var le *cnf.LimitError
	if !errors.As(err, &le) || *le != (cnf.LimitError{What: "bytes", Limit: budget}) {
		t.Fatalf("budget ending at the second count: err = %v, want the bytes limit %d", err, budget)
	}
}

// repeatReader yields n copies of b, so a test can feed a huge input
// without holding it in memory.
type repeatReader struct {
	b byte
	n int64
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = r.b
	}
	r.n -= int64(len(p))
	return len(p), nil
}

// TestReadLineLongerThan64MiB: the text reader has no line-length cap. A
// valid trace whose lines exceed 64 MiB (here a comment line and a clause
// line padded with blanks) must parse, not fail with an untyped
// bufio.ErrTooLong as a line scanner capped at 1<<26 bytes did.
func TestReadLineLongerThan64MiB(t *testing.T) {
	if testing.Short() {
		t.Skip("reads 130 MiB")
	}
	const pad = 65 << 20
	in := io.MultiReader(
		strings.NewReader("1 2 0\nc"),
		&repeatReader{b: ' ', n: pad},
		strings.NewReader("a long comment\n-1"),
		&repeatReader{b: ' ', n: pad},
		strings.NewReader("0\n2 0\n"),
	)
	got, err := Read(in)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	want := []cnf.Clause{cl(1, 2), cl(-1), cl(2)}
	if !reflect.DeepEqual(got.Clauses, want) {
		t.Fatalf("clauses = %v, want %v", got.Clauses, want)
	}
}

// TestReadTokenizer pins the text syntax: white space (tabs, CR, Unicode
// blanks) separates fields, clauses may share or span lines, literals take
// an optional sign, and only a comment of exactly "c res <n>" annotates.
func TestReadTokenizer(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []cnf.Clause
		res  []int64
	}{
		{"1 2 0 -3 0\n", []cnf.Clause{cl(1, 2), cl(-3)}, nil},
		{"1 2\n3\n0\n", []cnf.Clause{cl(1, 2, 3)}, nil},
		{"1\t-2 0\r\n3 0\r\n", []cnf.Clause{cl(1, -2), cl(3)}, nil},
		{"+3 -0 1 0\n", []cnf.Clause{cl(3), cl(1)}, nil},
		{"0\n", []cnf.Clause{nil}, nil},
		{"1 2 0\n", []cnf.Clause{cl(1, 2)}, nil},
		{"c res 4\n1 0\nc res 2 extra\n2 0\n", []cnf.Clause{cl(1), cl(2)}, []int64{4, 0}},
		{"1 0\n  c res +5\n2 0\n", []cnf.Clause{cl(1), cl(2)}, []int64{0, 5}},
		{"c res 3\n", nil, nil},
	} {
		got, err := ReadString(tc.in)
		if err != nil {
			t.Fatalf("ReadString(%q): %v", tc.in, err)
		}
		if !reflect.DeepEqual(got.Clauses, tc.want) || !reflect.DeepEqual(got.Resolutions, tc.res) {
			t.Errorf("ReadString(%q) = %v res %v, want %v res %v", tc.in, got.Clauses, got.Resolutions, tc.want, tc.res)
		}
	}
	for in, msg := range map[string]string{
		"1 0\n2 x 0\n":               "line 2: unexpected token \"x\"",
		"1 0\nc res 9z\n":            "line 2: bad res count \"9z\"",
		"1 0\n2 3\n":                 "last clause not terminated by 0",
		"1 99999999999999999999 0\n": "line 1: unexpected token \"99999999999999999999\"",
	} {
		_, err := ReadString(in)
		if !errors.Is(err, cnf.ErrMalformed) || !strings.Contains(err.Error(), msg) {
			t.Errorf("ReadString(%q) err = %v, want cnf.ErrMalformed with %q", in, err, msg)
		}
	}
}

// TestReadClausesDoNotAlias: clauses share a literal slab, but appending to
// one must not overwrite the next.
func TestReadClausesDoNotAlias(t *testing.T) {
	got, err := ReadString("1 2 0\n3 4 0\n")
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got.Clauses[0], cnf.FromDimacs(9))
	if !got.Clauses[1].Equal(cl(3, 4)) {
		t.Fatalf("appending to clause 0 changed clause 1 to %v", got.Clauses[1])
	}
}

// TestReadAllocsBounded: clauses are carved from shared slabs, so
// allocations grow with the slab count, not with the number of literals.
func TestReadAllocsBounded(t *testing.T) {
	for _, n := range []int{10_000, 40_000} {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "c res %d\n%d -%d %d 0\n", i%5, i%1000+1, (i*7)%1000+1, (i*13)%1000+1)
		}
		in := b.String()
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ReadString(in); err != nil {
				t.Fatal(err)
			}
		})
		if tokens := 7 * n; allocs > float64(tokens)/1000 {
			t.Errorf("%d clauses: %.0f allocations for %d tokens", n, allocs, tokens)
		}
	}
}

package proof

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestReadLimitedMaxVar(t *testing.T) {
	// A literal whose magnitude parses as int but would overflow the int32
	// Var encoding (or just drive a huge allocation) must be refused, not
	// narrowed into garbage.
	// The most negative int is its own negation, so it needs its own row.
	for _, in := range []string{"9000000000 0\n", "-9000000000 0\n", "70000 0\n", "-9223372036854775808 0\n"} {
		_, err := ReadLimited(strings.NewReader(in), Limits{MaxVar: 65536})
		var le *LimitError
		if !errors.As(err, &le) || !errors.Is(err, ErrLimit) {
			t.Fatalf("ReadLimited(%q) err = %v, want *LimitError", in, err)
		}
		if le.What != "variable" {
			t.Fatalf("ReadLimited(%q): tripped %q limit, want variable", in, le.What)
		}
	}
}

func TestReadLimitedClauseAndLenLimits(t *testing.T) {
	if _, err := ReadLimited(strings.NewReader("1 0\n2 0\n3 0\n"), Limits{MaxClauses: 2}); !errors.Is(err, ErrLimit) {
		t.Fatalf("clause-count limit: err = %v", err)
	}
	if _, err := ReadLimited(strings.NewReader("1 2 3 4 0\n"), Limits{MaxClauseLen: 3}); !errors.Is(err, ErrLimit) {
		t.Fatalf("clause-length limit: err = %v", err)
	}
	if _, err := ReadLimited(strings.NewReader("1 2 0\n-1 0\n"), Limits{MaxBytes: 4}); !errors.Is(err, ErrLimit) {
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
		if _, err := ReadString(in); !errors.Is(err, ErrMalformed) {
			t.Fatalf("ReadString(%q) err = %v, want ErrMalformed", in, err)
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
		if _, err := ReadBinary(bytes.NewReader(in)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
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

	if _, err := ReadBinaryLimited(bytes.NewReader(data), Limits{MaxVar: 65536}); !errors.Is(err, ErrLimit) {
		t.Fatalf("variable limit: err = %v", err)
	}
	if _, err := ReadBinaryLimited(bytes.NewReader(data), Limits{MaxClauses: 2}); !errors.Is(err, ErrLimit) {
		t.Fatalf("clause-count limit: err = %v", err)
	}
	if _, err := ReadBinaryLimited(bytes.NewReader(data), Limits{MaxClauseLen: 1}); !errors.Is(err, ErrLimit) {
		t.Fatalf("clause-length limit: err = %v", err)
	}
	if _, err := ReadBinaryLimited(bytes.NewReader(data), Limits{MaxBytes: 8}); !errors.Is(err, ErrLimit) {
		t.Fatalf("byte limit: err = %v", err)
	}

	// Exactly-at-limit input still parses.
	got, err := ReadBinaryLimited(bytes.NewReader(data), Limits{
		MaxVar: 100000, MaxClauses: 3, MaxClauseLen: 2, MaxBytes: int64(len(data)),
	})
	if err != nil || len(got.Clauses) != 3 {
		t.Fatalf("at-limit parse: err=%v got=%+v", err, got)
	}
}

func TestCappedReaderDistinguishesEOF(t *testing.T) {
	// Under the limit: plain EOF passes through so well-formed input that
	// simply ends is fine.
	cr := newCappedReader(strings.NewReader("ab"), 10)
	if b, err := io.ReadAll(cr); err != nil || string(b) != "ab" {
		t.Fatalf("under limit: %q, %v", b, err)
	}
	// Over the limit: a typed error, never a silent truncation.
	cr = newCappedReader(strings.NewReader("abcdef"), 3)
	if _, err := io.ReadAll(cr); !errors.Is(err, ErrLimit) {
		t.Fatalf("over limit: err = %v", err)
	}
}

package proof

import (
	"bytes"
	"testing"

	"repro/internal/cnf"
)

func cl(dimacs ...int) cnf.Clause {
	c := make(cnf.Clause, 0, len(dimacs))
	for _, d := range dimacs {
		c = append(c, cnf.FromDimacs(d))
	}
	return c
}

func TestTraceAppendAndStats(t *testing.T) {
	tr := New()
	tr.Append(cl(1, 2, 3), 2)
	tr.Append(cl(-1), 5)
	tr.Append(cl(1), 1)
	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.NumLiterals() != 5 {
		t.Errorf("NumLiterals = %d, want 5", tr.NumLiterals())
	}
	if tr.TotalResolutions() != 8 {
		t.Errorf("TotalResolutions = %d, want 8", tr.TotalResolutions())
	}
	if tr.MaxVar() != 2 {
		t.Errorf("MaxVar = %d, want 2", tr.MaxVar())
	}
}

func TestTraceTermination(t *testing.T) {
	tr := New()
	if tr.Terminates() != TermNone {
		t.Error("empty trace should not terminate")
	}
	tr.Append(cl(1, 2), 0)
	if tr.Terminates() != TermNone {
		t.Error("non-unit ending should be TermNone")
	}
	tr.Append(cl(-3), 0)
	tr.Append(cl(3), 0)
	if tr.Terminates() != TermFinalPair {
		t.Error("final conflicting pair not recognized")
	}
	tr.Append(cnf.Clause{}, 0)
	if tr.Terminates() != TermEmptyClause {
		t.Error("empty clause termination not recognized")
	}
}

func TestTraceTerminationSameLiteralTwice(t *testing.T) {
	tr := New()
	tr.Append(cl(3), 0)
	tr.Append(cl(3), 0)
	if tr.Terminates() == TermFinalPair {
		t.Error("two identical units are not a conflicting pair")
	}
}

func TestTraceValidate(t *testing.T) {
	tr := New()
	tr.Append(cl(-1), 0)
	tr.Append(cl(1), 0)
	if err := tr.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	tr.Resolutions = tr.Resolutions[:1]
	if err := tr.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestTraceCloneIndependent(t *testing.T) {
	tr := New()
	tr.Append(cl(1, 2), 3)
	cp := tr.Clone()
	cp.Clauses[0][0] = cnf.FromDimacs(-9)
	cp.Resolutions[0] = 99
	if tr.Clauses[0][0] != cnf.FromDimacs(1) || tr.Resolutions[0] != 3 {
		t.Error("Clone shares storage")
	}
}

func TestTraceIORoundTrip(t *testing.T) {
	tr := New()
	tr.Append(cl(1, -2, 3), 4)
	tr.Append(cl(-1), 7)
	tr.Append(cl(1), 2)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if want := "c res 4\n1 -2 3 0\nc res 7\n-1 0\nc res 2\n1 0\n"; buf.String() != want {
		t.Fatalf("wrote %q, want %q", buf.String(), want)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Clauses {
		if !got.Clauses[i].Equal(tr.Clauses[i]) {
			t.Errorf("clause %d: %v vs %v", i, got.Clauses[i], tr.Clauses[i])
		}
		if got.Resolutions[i] != tr.Resolutions[i] {
			t.Errorf("res %d: %d vs %d", i, got.Resolutions[i], tr.Resolutions[i])
		}
	}
}

func TestTraceIOWithoutResolutions(t *testing.T) {
	tr := &Trace{Clauses: []cnf.Clause{cl(1, 2), cl(-1)}}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Resolutions != nil {
		t.Error("reader invented resolution counts")
	}
}

func TestTraceReadComments(t *testing.T) {
	got, err := ReadString("c hello\n1 2 0\nc res 9\n-1 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("Len = %d", got.Len())
	}
	if got.Resolutions == nil || got.Resolutions[1] != 9 || got.Resolutions[0] != 0 {
		t.Errorf("Resolutions = %v", got.Resolutions)
	}
}

func TestTraceReadEmptyClause(t *testing.T) {
	got, err := ReadString("1 2 0\n0\n")
	if err != nil {
		t.Fatal(err)
	}
	if got.Terminates() != TermEmptyClause {
		t.Error("empty clause line not parsed as empty clause")
	}
}

func TestTraceReadErrors(t *testing.T) {
	for _, in := range []string{"1 2\n", "1 x 0\n", "c res y\n1 0\n"} {
		if _, err := ReadString(in); err == nil {
			t.Errorf("Read(%q) succeeded, want error", in)
		}
	}
}

package cnf

import (
	"bytes"
	"strings"
	"testing"
)

func TestFormulaAdd(t *testing.T) {
	f := NewFormula(0)
	f.Add(1, -2).Add(2, 3).Add(-3)
	if f.NumVars != 3 {
		t.Errorf("NumVars = %d, want 3", f.NumVars)
	}
	if f.NumClauses() != 3 {
		t.Errorf("NumClauses = %d, want 3", f.NumClauses())
	}
	if f.NumLiterals() != 5 {
		t.Errorf("NumLiterals = %d, want 5", f.NumLiterals())
	}
	if f.MaxVar() != 2 {
		t.Errorf("MaxVar = %d, want 2", f.MaxVar())
	}
}

func TestFormulaEval(t *testing.T) {
	f := NewFormula(0).Add(1, 2).Add(-1, 2).Add(1, -2)
	if !f.Eval([]bool{true, true}) {
		t.Error("satisfying assignment rejected")
	}
	if f.Eval([]bool{false, false}) {
		t.Error("falsifying assignment accepted")
	}
}

func TestFormulaCloneIndependent(t *testing.T) {
	f := NewFormula(0).Add(1, 2)
	g := f.Clone()
	g.Clauses[0][0] = FromDimacs(-1)
	if f.Clauses[0][0] != FromDimacs(1) {
		t.Error("Clone shares clause storage")
	}
}

func TestFormulaRestrict(t *testing.T) {
	f := NewFormula(0).Add(1).Add(2).Add(3)
	g := f.Restrict([]int{0, 2})
	if g.NumClauses() != 2 || !g.Clauses[1].SameLits(clauseOf(3)) {
		t.Errorf("Restrict = %v", g.Clauses)
	}
	if g.NumVars != f.NumVars {
		t.Errorf("Restrict changed NumVars: %d vs %d", g.NumVars, f.NumVars)
	}
}

func TestFormulaStats(t *testing.T) {
	f := NewFormula(0).Add(1).Add(1, 2).Add(1, 2, 3, 4)
	s := f.Stats()
	if s.Units != 1 || s.Binary != 1 || s.MaxLen != 4 || s.Literals != 7 || s.Clauses != 3 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestDimacsRoundTrip(t *testing.T) {
	f := NewFormula(5)
	f.Add(1, -2, 3).Add(-4, 5).Add(2)
	var buf bytes.Buffer
	if err := WriteDimacs(&buf, f); err != nil {
		t.Fatal(err)
	}
	if want := "p cnf 5 3\n1 -2 3 0\n-4 5 0\n2 0\n"; buf.String() != want {
		t.Fatalf("wrote %q, want %q", buf.String(), want)
	}
	g, err := ParseDimacs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVars != f.NumVars || g.NumClauses() != f.NumClauses() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			g.NumVars, g.NumClauses(), f.NumVars, f.NumClauses())
	}
	for i := range f.Clauses {
		if !f.Clauses[i].Equal(g.Clauses[i]) {
			t.Errorf("clause %d: %v vs %v", i, f.Clauses[i], g.Clauses[i])
		}
	}
}

func TestParseDimacsComments(t *testing.T) {
	in := `c a comment
p cnf 3 2
c another comment
1 -2 0
c inline comment line
-1 3 0
`
	f, err := ParseDimacsString(in)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || f.NumClauses() != 2 {
		t.Errorf("got %d vars, %d clauses", f.NumVars, f.NumClauses())
	}
}

func TestParseDimacsMultiLineClause(t *testing.T) {
	f, err := ParseDimacsString("p cnf 4 1\n1 2\n3 4 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 1 || len(f.Clauses[0]) != 4 {
		t.Errorf("got %d clauses, first len %d", f.NumClauses(), len(f.Clauses[0]))
	}
}

func TestParseDimacsNoHeader(t *testing.T) {
	f, err := ParseDimacsString("1 -3 0\n2 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || f.NumClauses() != 2 {
		t.Errorf("got %d vars, %d clauses; want 3, 2", f.NumVars, f.NumClauses())
	}
}

func TestParseDimacsErrors(t *testing.T) {
	cases := []string{
		"p cnf x 2\n1 0\n",
		"p cnf 2\n1 0\n",
		"p dnf 2 1\n1 0\n",
		"1 2\n",            // unterminated clause
		"p cnf 2 5\n1 0\n", // fewer clauses than declared
		"1 two 0\n",        // junk token
	}
	for _, in := range cases {
		if _, err := ParseDimacsString(in); err == nil {
			t.Errorf("ParseDimacs(%q) succeeded, want error", in)
		}
	}
}

func TestParseDimacsEmptyClause(t *testing.T) {
	f, err := ParseDimacsString("p cnf 1 2\n0\n1 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Clauses[0]) != 0 {
		t.Errorf("first clause should be empty, got %v", f.Clauses[0])
	}
}

func TestParseDimacsGrowsVarRange(t *testing.T) {
	f, err := ParseDimacsString("p cnf 1 1\n1 7 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 7 {
		t.Errorf("NumVars = %d, want 7", f.NumVars)
	}
}

func TestFormulaStringIsDimacs(t *testing.T) {
	f := NewFormula(0).Add(1, -2)
	if !strings.HasPrefix(f.String(), "p cnf 2 1\n") {
		t.Errorf("String() = %q", f.String())
	}
	if _, err := ParseDimacsString(f.String()); err != nil {
		t.Errorf("String() not parseable: %v", err)
	}
}

package repro

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/cnf"
)

// genAAG writes genaag's circuit for arch at width w into dir and returns
// its path.
func genAAG(t *testing.T, bins, dir, arch string, w int) string {
	t.Helper()
	path := filepath.Join(dir, arch+strconv.Itoa(w)+".aag")
	if code, out := runCmd(t, filepath.Join(bins, "genaag"), "-arch", arch, "-w", strconv.Itoa(w), "-o", path); code != 0 {
		t.Fatalf("genaag -arch %s -w %d: exit %d\n%s", arch, w, code, out)
	}
	return path
}

// TestAigmiterRoundTrip drives the equivalence-checking flow end to end:
// genaag → aigmiter → bksat -proof → dpv -core. Two adders of one width
// miter to an UNSAT formula whose proof dpv verifies and whose core bksat
// again reports UNSAT; two different one-gate circuits miter to SAT.
func TestAigmiterRoundTrip(t *testing.T) {
	bins := buildCmds(t)
	aigmiter := filepath.Join(bins, "aigmiter")
	bksat := filepath.Join(bins, "bksat")
	dpv := filepath.Join(bins, "dpv")
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }

	ripple := genAAG(t, bins, dir, "ripple", 4)
	kogge := genAAG(t, bins, dir, "koggestone", 4)
	if code, out := runCmd(t, aigmiter, "-o", in("adders.cnf"), ripple, kogge); code != 0 {
		t.Fatalf("aigmiter: exit %d\n%s", code, out)
	}
	miter := readFile(t, in("adders.cnf"), cnf.ParseDimacs)
	if miter.NumClauses() != 295 {
		t.Fatalf("miter has %d clauses, want 295", miter.NumClauses())
	}
	if code, out := runCmd(t, bksat, "-proof", in("adders.trace"), in("adders.cnf")); code != 20 {
		t.Fatalf("bksat on the adder miter: exit %d, want 20 (UNSAT)\n%s", code, out)
	}
	if code, out := runCmd(t, dpv, "-q", "-core", in("adders.core"), in("adders.cnf"), in("adders.trace")); code != 0 {
		t.Fatalf("dpv: exit %d, want 0 (verified)\n%s", code, out)
	}
	if n := readFile(t, in("adders.core"), cnf.ParseDimacs).NumClauses(); n == 0 || n > miter.NumClauses() {
		t.Fatalf("core has %d clauses, want 1..%d", n, miter.NumClauses())
	}
	if code, out := runCmd(t, bksat, in("adders.core")); code != 20 {
		t.Fatalf("bksat on the core: exit %d, want 20 (UNSAT)\n%s", code, out)
	}

	// a AND b against a OR b: one gate each, different functions.
	and := in("and.aag")
	or := in("or.aag")
	if err := os.WriteFile(and, []byte("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(or, []byte("aag 3 2 0 1 1\n2\n4\n7\n6 3 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := runCmd(t, aigmiter, "-o", in("gates.cnf"), and, or); code != 0 {
		t.Fatalf("aigmiter: exit %d\n%s", code, out)
	}
	if code, out := runCmd(t, bksat, in("gates.cnf")); code != 10 {
		t.Fatalf("bksat on the gate miter: exit %d, want 10 (SAT)\n%s", code, out)
	}
}

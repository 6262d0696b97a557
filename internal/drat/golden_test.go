package drat

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestDratcheckGolden pins the observable output of dratcheck -backward —
// the stdout report and the -trim, -core and -emit-lrat files, byte for
// byte — on three recorded cases in testdata/golden:
//
//   - deletions: bksat -drat's proof of php 6 (248 deletion lines) with an
//     explicit empty clause appended;
//   - nodel: bksat -drat's proof of php 5, deletion-free and without an
//     empty clause, so the checker must refute the final database;
//   - reject: the deletions proof with its 600th addition replaced by
//     "-17 9 0", which leaves a later marked addition without a RUP
//     derivation (nothing but stdout is written).
//
// The inputs come from gencnf -family php -a 5|6 and bksat -drat; the
// expected files are dratcheck -backward -trim X -core X -emit-lrat X over
// them. Regenerate them only for a deliberate output change.
func TestDratcheckGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "dratcheck")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/dratcheck").CombinedOutput(); err != nil {
		t.Fatalf("building dratcheck: %v\n%s", err, out)
	}
	golden := func(name string) string { return filepath.Join("testdata", "golden", name) }
	artifacts := []struct{ flag, ext string }{
		{"-trim", ".trim.drat"}, {"-core", ".core.cnf"}, {"-emit-lrat", ".lrat"},
	}
	for _, tc := range []struct {
		name, formula string
		exit          int
	}{
		{"deletions", "php6.cnf", 0},
		{"nodel", "php5.cnf", 0},
		{"reject", "php6.cnf", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-backward"}
			for _, a := range artifacts {
				args = append(args, a.flag, filepath.Join(dir, tc.name+a.ext))
			}
			args = append(args, golden(tc.formula), golden(tc.name+".drat"))
			cmd := exec.Command(bin, args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			exit := 0
			if err := cmd.Run(); err != nil {
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					t.Fatal(err)
				}
				exit = ee.ExitCode()
			}
			if exit != tc.exit {
				t.Fatalf("exit %d, want %d\nstderr:\n%s", exit, tc.exit, stderr.String())
			}
			want, err := os.ReadFile(golden(tc.name + ".stdout"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout:\n got %q\nwant %q", stdout.String(), want)
			}
			for _, a := range artifacts {
				got, gerr := os.ReadFile(filepath.Join(dir, tc.name+a.ext))
				want, werr := os.ReadFile(golden(tc.name + a.ext))
				switch {
				case os.IsNotExist(werr):
					if gerr == nil {
						t.Errorf("%s written for a case that expects none", a.flag)
					}
				case werr != nil:
					t.Fatal(werr)
				case gerr != nil:
					t.Errorf("%s: %v", a.flag, gerr)
				case !bytes.Equal(got, want):
					t.Errorf("%s output differs from %s (%d vs %d bytes)", a.flag, golden(tc.name+a.ext), len(got), len(want))
				}
			}
		})
	}
}

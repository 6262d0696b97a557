package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDpvGolden pins dpv's observable output — the -json result on stdout
// and the -core, -trim and -emit-lrat files, byte for byte — on three
// recorded cases in testdata/golden, each in check-marked and -all mode,
// and each both with -emit-lrat and on the default path without it (the
// "plain" files, which have no .lrat):
//
//   - php6: gencnf -family php -a 6 and bksat -proof's trace of it;
//   - php5_pin8: PHP over 13 holes with 8 pigeons pinned by unit clauses
//     (gen.PHPPinned(5, 8)), so most checks start from a deep root trail;
//   - reject: the php6 trace with its 300th clause replaced by "-17 9 0",
//     which leaves a later clause without a RUP derivation (nothing but
//     stdout is written).
//
// The JSON carries the propagation count and the LRAT hints follow the
// engine's propagation order, so any change to which conflict BCP finds
// shows up here. A run that records hints and one that does not may
// propagate in different orders, which is why both are pinned. Regenerate
// the expected files only for a deliberate output change.
func TestDpvGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "dpv")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/dpv").CombinedOutput(); err != nil {
		t.Fatalf("building dpv: %v\n%s", err, out)
	}
	golden := func(name string) string { return filepath.Join("testdata", "golden", name) }
	type artifact struct{ flag, ext string }
	plain := []artifact{{"-core", ".core.cnf"}, {"-trim", ".trim.trace"}}
	hinted := append(plain[:len(plain):len(plain)], artifact{"-emit-lrat", ".lrat"})
	for _, tc := range []struct {
		name, formula, trace string
		exit                 int
	}{
		{"php6", "php6.cnf", "php6.trace", 0},
		{"php5_pin8", "php5_pin8.cnf", "php5_pin8.trace", 0},
		{"reject", "php6.cnf", "reject.trace", 2},
	} {
		for _, mode := range []string{"marked", "all", "plain.marked", "plain.all"} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				dir := t.TempDir()
				base := tc.name + "." + mode
				artifacts := hinted
				if strings.HasPrefix(mode, "plain.") {
					artifacts = plain
				}
				args := []string{"-json"}
				if strings.HasSuffix(mode, "all") {
					args = append(args, "-all")
				}
				for _, a := range artifacts {
					args = append(args, a.flag, filepath.Join(dir, base+a.ext))
				}
				args = append(args, golden(tc.formula), golden(tc.trace))
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
				want, err := os.ReadFile(golden(base + ".stdout"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(stdout.Bytes(), want) {
					t.Errorf("stdout:\n got %q\nwant %q", stdout.String(), want)
				}
				for _, a := range artifacts {
					got, gerr := os.ReadFile(filepath.Join(dir, base+a.ext))
					want, werr := os.ReadFile(golden(base + a.ext))
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
						t.Errorf("%s output differs from %s (%d vs %d bytes)", a.flag, golden(base+a.ext), len(got), len(want))
					}
				}
			})
		}
	}
}

package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/journal"
	"repro/internal/lrat"
	"repro/internal/obs"
	"repro/internal/proof"
	"repro/internal/solver"
)

// The exit-code contract (internal/exitcode) is only real if the built
// binaries honor it, so this test builds them and drives each outcome class:
// verified, rejected, malformed input, timeout, budget, usage, SAT/UNSAT,
// and SIGINT/SIGTERM.

// The CLI binaries are built at most once per test binary, into cmdsDir,
// which TestMain removes after the run.
var (
	cmdsOnce sync.Once
	cmdsDir  string
	cmdsErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if cmdsDir != "" {
		os.RemoveAll(cmdsDir)
	}
	os.Exit(code)
}

// buildCmds compiles the CLI binaries once into a shared temp dir.
func buildCmds(t *testing.T) string {
	t.Helper()
	cmdsOnce.Do(func() {
		if cmdsDir, cmdsErr = os.MkdirTemp("", "repro-cmds-"); cmdsErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", cmdsDir, "./cmd/dpv", "./cmd/bksat", "./cmd/dratcheck", "./cmd/lratcheck",
			"./cmd/genaag", "./cmd/aigmiter")
		if out, err := cmd.CombinedOutput(); err != nil {
			cmdsErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if cmdsErr != nil {
		t.Fatalf("building binaries: %v", cmdsErr)
	}
	return cmdsDir
}

// writeFixtures produces a verified formula/proof pair (in trace and hinted
// LRAT form), a satisfiable formula, a weakened (satisfiable) variant of the
// UNSAT formula, and a garbage file, returning their paths.
func writeFixtures(t *testing.T) (unsatCNF, trace, lratPath, satCNF, weakCNF, garbage string) {
	t.Helper()
	dir := t.TempDir()

	inst := gen.PHP(5)
	st, tr, _, _, err := solver.Solve(inst.F, solver.Options{})
	if err != nil || st != solver.Unsat {
		t.Fatalf("solving php_5: %v %v", st, err)
	}

	write := func(name string, emit func(*os.File) error) string {
		path := filepath.Join(dir, name)
		out, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := emit(out); err != nil {
			t.Fatal(err)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	unsatCNF = write("php5.cnf", func(o *os.File) error { return cnf.WriteDimacs(o, inst.F) })
	trace = write("php5.trace", func(o *os.File) error { return proof.Write(o, tr) })
	var rec lrat.Recorder
	if res, err := core.Verify(inst.F, tr, core.Options{Hints: &rec}); err != nil || !res.OK {
		t.Fatalf("hinted verify of php_5: err=%v res=%+v", err, res)
	}
	lratPath = write("php5.lrat", func(o *os.File) error {
		lp, err := rec.Proof()
		if err != nil {
			return err
		}
		return lrat.Write(o, lp)
	})
	satCNF = write("sat.cnf", func(o *os.File) error {
		return cnf.WriteDimacs(o, cnf.NewFormula(2).Add(1, 2).Add(-1, 2))
	})
	// PHP is minimally unsatisfiable: removing any clause leaves a
	// satisfiable formula the old proof cannot be valid for.
	weak := inst.F.Clone()
	weak.Clauses = weak.Clauses[1:]
	weakCNF = write("weak.cnf", func(o *os.File) error { return cnf.WriteDimacs(o, weak) })
	garbage = write("garbage.cnf", func(o *os.File) error {
		_, err := o.WriteString("p cnf x y\nnot a formula\n")
		return err
	})
	return
}

// writeBigLRAT emits a hinted proof with n repeated derivations of (x2) from
// the three-clause chain (x1)(¬x1 x2)(¬x2), closed by the empty clause. Every
// step replays, so the only way the run ends early is the signal under test;
// n in the millions keeps the checker busy long enough to land one.
func writeBigLRAT(t *testing.T, dir string, n int) (cnfPath, lratPath string) {
	t.Helper()
	cnfPath = filepath.Join(dir, "chain2.cnf")
	if err := os.WriteFile(cnfPath, []byte("p cnf 2 3\n1 0\n-1 2 0\n-2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	lratPath = filepath.Join(dir, "big.lrat")
	out, err := os.Create(lratPath)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriterSize(out, 1<<20)
	for i := 0; i < n; i++ {
		// id C=(x2) 0 hints=(x1),(¬x1 x2) 0 — unit then falsified.
		fmt.Fprintf(w, "%d 2 0 1 2 0\n", 4+i)
	}
	fmt.Fprintf(w, "%d 0 1 2 3 0\n", 4+n)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	return
}

// writeLongForwardDRUP emits an n-variable implication chain x1 → … → xn
// (no units, so the root fixpoint is empty) and a DRUP proof that adds and
// deletes (¬x1 ∨ xn) m times. Each addition is RUP only through the whole
// chain, so every step of the forward check propagates about n literals;
// n=20000, m=10000 keeps dratcheck busy for seconds. The proof derives no
// refutation: the signal tests need a long run, not a verdict.
func writeLongForwardDRUP(t *testing.T, dir string, n, m int) (cnfPath, dratPath string) {
	t.Helper()
	var cb, db bytes.Buffer
	fmt.Fprintf(&cb, "p cnf %d %d\n", n, n-1)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&cb, "-%d %d 0\n", i, i+1)
	}
	for i := 0; i < m; i++ {
		fmt.Fprintf(&db, "-1 %d 0\nd -1 %d 0\n", n, n)
	}
	cnfPath = filepath.Join(dir, "fwdchain.cnf")
	dratPath = filepath.Join(dir, "fwdchain.drat")
	if err := os.WriteFile(cnfPath, cb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dratPath, db.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return
}

func runCmd(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	if err == nil {
		return 0, buf.String()
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), buf.String()
	}
	t.Fatalf("running %s %v: %v", bin, args, err)
	return -1, ""
}

func TestExitCodes(t *testing.T) {
	bins := buildCmds(t)
	unsatCNF, trace, lratProof, satCNF, weakCNF, garbage := writeFixtures(t)
	dpv := filepath.Join(bins, "dpv")
	bksat := filepath.Join(bins, "bksat")
	dratcheck := filepath.Join(bins, "dratcheck")
	lratcheck := filepath.Join(bins, "lratcheck")
	svc := buildClusterCmds(t)
	dpvd := filepath.Join(svc, "dpvd")
	dpvrouter := filepath.Join(svc, "dpvrouter")
	tmp := t.TempDir()
	writeTmp := func(name, content string) string {
		path := filepath.Join(tmp, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	hugeLit := writeTmp("huge.drat", "9223372036854775807 0\n")
	// A satisfiable formula with and without the SATLIB trailer "%\n0\n",
	// and a proof that claims the empty clause outright.
	satTrailer := writeTmp("trailer.cnf", "p cnf 2 1\n1 2 0\n%\n0\n")
	satNoTrailer := writeTmp("notrailer.cnf", "p cnf 2 1\n1 2 0\n")
	emptyProof := writeTmp("empty.trace", "0\n")
	// A binary LRAT step whose id, 4, is encoded in two bytes, not one.
	paddedLRAT := writeTmp("padded.lratb", "CLRT\x01\x00a\x84\x00\x00\x02\x04\x00")
	ripple4 := genAAG(t, bins, tmp, "ripple", 4)
	ripple5 := genAAG(t, bins, tmp, "ripple", 5)

	cases := []struct {
		name string
		bin  string
		args []string
		want int
	}{
		{"dpv verified", dpv, []string{"-q", unsatCNF, trace}, 0},
		{"dpv verified parallel", dpv, []string{"-q", "-par", "4", unsatCNF, trace}, 0},
		{"dpv rejected", dpv, []string{"-q", weakCNF, trace}, 2},
		{"dpv rejected all", dpv, []string{"-q", "-all", weakCNF, trace}, 2},
		{"dpv malformed formula", dpv, []string{garbage, trace}, 3},
		{"dpv missing file", dpv, []string{filepath.Join(bins, "no-such.cnf"), trace}, 3},
		{"dpv malformed trace", dpv, []string{unsatCNF, garbage}, 3},
		{"dpv timeout", dpv, []string{"-timeout", "1ns", unsatCNF, trace}, 4},
		{"dpv prop budget", dpv, []string{"-max-props", "1", unsatCNF, trace}, 5},
		{"dpv memory budget", dpv, []string{"-max-memory", "16", unsatCNF, trace}, 5},
		{"dpv usage", dpv, []string{unsatCNF}, 1},
		// The trailer ends the formula: its "0" is not an empty clause.
		{"dpv sat formula", dpv, []string{"-q", satNoTrailer, emptyProof}, 2},
		{"dpv sat formula with trailer", dpv, []string{"-q", satTrailer, emptyProof}, 2},
		{"dpv verified dag", dpv, []string{"-q", "-par", "4", "-sched", "dag", unsatCNF, trace}, 0},
		{"dpv sched dag without par", dpv, []string{"-sched", "dag", unsatCNF, trace}, 1},
		// Chunked workers keep no checkpoints; a resumable run is sequential.
		{"dpv par checkpoint", dpv, []string{"-par", "3", "-checkpoint", filepath.Join(tmp, "par.dpvj"), unsatCNF, trace}, 1},
		// No record can be written into a missing directory; the first
		// write fails the run.
		{"dpv unwritable checkpoint", dpv, []string{"-q", "-checkpoint", filepath.Join(tmp, "no-such-dir", "j"),
			"-checkpoint-every", "1", unsatCNF, trace}, 6},
		{"dratcheck backward unwritable checkpoint", dratcheck, []string{"-q", "-backward", "-checkpoint",
			filepath.Join(tmp, "no-such-dir", "j"), "-checkpoint-every", "1", unsatCNF, trace}, 6},
		// The flag package's own exit status for a bad flag is 2, which the
		// contract reserves for a rejected proof; every binary maps it to 1.
		{"dpv unknown flag", dpv, []string{"-bogus", unsatCNF, trace}, 1},
		{"dpv help", dpv, []string{"-h"}, 0},
		{"bksat unknown flag", bksat, []string{"-bogus", unsatCNF}, 1},
		{"dratcheck unknown flag", dratcheck, []string{"-bogus", unsatCNF, trace}, 1},
		{"lratcheck unknown flag", lratcheck, []string{"-bogus", unsatCNF, lratProof}, 1},
		{"lratcheck help", lratcheck, []string{"-h"}, 0},
		{"dpvd unknown flag", dpvd, []string{"-bogus"}, 1},
		{"dpvrouter unknown flag", dpvrouter, []string{"-bogus", "-shards", "http://127.0.0.1:1"}, 1},
		{"bksat sat", bksat, []string{satCNF}, 10},
		{"bksat unsat", bksat, []string{unsatCNF}, 20},
		{"bksat malformed", bksat, []string{garbage}, 3},
		{"bksat timeout", bksat, []string{"-timeout", "1ns", unsatCNF}, 4},
		{"bksat usage", bksat, []string{}, 1},
		{"dratcheck malformed", dratcheck, []string{garbage, trace}, 3},
		{"dratcheck usage", dratcheck, []string{unsatCNF}, 1},
		// An int64-sized literal must trip the reader's variable limit, not
		// wrap into the int32 literal encoding and panic.
		{"dratcheck oversized literal", dratcheck, []string{unsatCNF, hugeLit}, 3},
		{"dratcheck backward oversized literal", dratcheck, []string{"-backward", unsatCNF, hugeLit}, 3},
		// The deadline covers the forward check as well as -backward.
		{"dratcheck forward timeout", dratcheck, []string{"-timeout", "1ns", unsatCNF, trace}, 4},
		{"lratcheck verified", lratcheck, []string{"-q", unsatCNF, lratProof}, 0},
		{"lratcheck verified parallel", lratcheck, []string{"-q", "-par", "4", unsatCNF, lratProof}, 0},
		// The hints were recorded against the full formula; dropping a clause
		// shifts every formula ID, so the replays no longer go through.
		{"lratcheck rejected", lratcheck, []string{"-q", weakCNF, lratProof}, 2},
		{"lratcheck malformed formula", lratcheck, []string{garbage, lratProof}, 3},
		{"lratcheck malformed proof", lratcheck, []string{unsatCNF, garbage}, 3},
		{"lratcheck padded binary uvarint", lratcheck, []string{unsatCNF, paddedLRAT}, 3},
		{"lratcheck timeout", lratcheck, []string{"-timeout", "1ns", unsatCNF, lratProof}, 4},
		{"lratcheck usage", lratcheck, []string{unsatCNF}, 1},
		{"aigmiter input counts differ", filepath.Join(bins, "aigmiter"), []string{"-o", filepath.Join(tmp, "miter.cnf"), ripple4, ripple5}, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got, out := runCmd(t, tc.bin, tc.args...)
			if got != tc.want {
				t.Fatalf("exit code %d, want %d\noutput:\n%s", got, tc.want, out)
			}
		})
	}
	// The readers' messages do not say which input failed; the path does.
	t.Run("dpv malformed trace names its path", func(t *testing.T) {
		t.Parallel()
		cmd := exec.Command(dpv, unsatCNF, garbage)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if ee, ok := cmd.Run().(*exec.ExitError); !ok || ee.ExitCode() != 3 {
			t.Fatalf("want exit code 3, stderr:\n%s", stderr.String())
		}
		if !strings.Contains(stderr.String(), garbage+": malformed input") {
			t.Fatalf("stderr does not name the proof %s:\n%s", garbage, stderr.String())
		}
	})
}

// TestProofReadSpan: every checker reads its proof under a proof-read span
// with a byte counter, so -stats-json splits parsing the proof from
// checking it.
func TestProofReadSpan(t *testing.T) {
	bins := buildCmds(t)
	unsatCNF, trace, lratProof, _, _, _ := writeFixtures(t)
	for _, tc := range []struct{ bin, proof string }{
		{"lratcheck", lratProof},
		{"dratcheck", trace},
		{"dpv", trace},
	} {
		stats := filepath.Join(t.TempDir(), "stats.json")
		if code, out := runCmd(t, filepath.Join(bins, tc.bin), "-q", "-stats-json", stats, unsatCNF, tc.proof); code != 0 {
			t.Fatalf("%s: exit code %d\n%s", tc.bin, code, out)
		}
		data, err := os.ReadFile(stats)
		if err != nil {
			t.Fatal(err)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		var spans []string
		if snap.Spans != nil {
			for _, c := range snap.Spans.Children {
				spans = append(spans, c.Name)
			}
		}
		if !slices.Contains(spans, "proof-read") {
			t.Errorf("%s: top-level spans %q, want proof-read among them", tc.bin, spans)
		}
		fi, err := os.Stat(tc.proof)
		if err != nil {
			t.Fatal(err)
		}
		if got := snap.Counters["proof.read.bytes"]; got != fi.Size() {
			t.Errorf("%s: proof.read.bytes = %d, want the proof's %d bytes", tc.bin, got, fi.Size())
		}
	}
}

// TestExitCodeInterrupted sends SIGINT to a bksat run on an instance far too
// hard to finish, and requires the 128+2 shell convention plus a clean
// partial-run report instead of the runtime's default signal death.
func TestExitCodeInterrupted(t *testing.T) {
	bins := buildCmds(t)
	dir := t.TempDir()
	hard := filepath.Join(dir, "php10.cnf")
	out, err := os.Create(hard)
	if err != nil {
		t.Fatal(err)
	}
	if err := cnf.WriteDimacs(out, gen.PHP(10).F); err != nil {
		t.Fatal(err)
	}
	out.Close()

	// -timeout backstops the test: if SIGINT handling regresses, the run
	// ends with code 4 instead of hanging for PHP(10)'s full search.
	cmd := exec.Command(filepath.Join(bins, "bksat"), "-timeout", "60s", hard)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Give the process time to install its handler and enter the search.
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	werr := cmd.Wait()
	ee, ok := werr.(*exec.ExitError)
	if !ok {
		t.Fatalf("wait: %v (output: %s)", werr, buf.String())
	}
	if code := ee.ExitCode(); code != 130 {
		t.Fatalf("exit code %d, want 130\noutput:\n%s", code, buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte("s UNKNOWN")) {
		t.Fatalf("interrupted run did not report a verdict line:\n%s", buf.String())
	}
}

// TestExitCodeInterruptedResume drives the durability half of the SIGINT
// contract: a checkpointing dpv run interrupted mid-verification must exit
// 130 and leave a journal holding a checkpoint that validates against the
// run, and a subsequent -resume must complete with the same stdout report
// as an uninterrupted run.
func TestExitCodeInterruptedResume(t *testing.T) {
	bins := buildCmds(t)
	dir := t.TempDir()
	// Long enough that the run is still verifying when the signal lands
	// (~1s of checkpointed work), deterministic, and no solver needed.
	cnfPath, tracePath, _ := writeChainFixtures(t, dir, 12000)
	dpv := filepath.Join(bins, "dpv")
	j := filepath.Join(dir, "ck.dpvj")

	code, baseOut := runWithEnv(t, nil, dpv,
		"-checkpoint", filepath.Join(dir, "base.dpvj"), "-checkpoint-every", "100", cnfPath, tracePath)
	if code != 0 {
		t.Fatalf("baseline exit %d:\n%s", code, baseOut)
	}

	cmd := exec.Command(dpv, "-checkpoint", j, "-checkpoint-every", "100", cnfPath, tracePath)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Interrupt only once a checkpoint record is durable, so the resumed run
	// demonstrably starts mid-proof rather than from scratch. The journal
	// appears only with its first record.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(j); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("no checkpoint record appeared within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	werr := cmd.Wait()
	ee, ok := werr.(*exec.ExitError)
	if !ok {
		t.Fatalf("wait: %v — run finished before SIGINT; grow the fixture\noutput:\n%s", werr, buf.String())
	}
	if code := ee.ExitCode(); code != 130 {
		t.Fatalf("exit code %d, want 130\noutput:\n%s", code, buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte("s UNKNOWN")) {
		t.Fatalf("interrupted run did not report a verdict line:\n%s", buf.String())
	}

	// The journal must hold the last checkpoint the run wrote, valid for
	// this formula, trace and configuration.
	f := readFile(t, cnfPath, cnf.ParseDimacs)
	tr := readFile(t, tracePath, proof.Read)
	payload, err := journal.Open(j, journal.Meta{Interval: 100,
		FormulaFP: journal.FingerprintFormula(f), ProofFP: journal.FingerprintTrace(tr)}, nil)
	if err != nil {
		t.Fatalf("journal after SIGINT: %v", err)
	}
	if _, err := core.DecodeCheckpoint(payload); err != nil {
		t.Fatalf("journal after SIGINT: %v", err)
	}

	code, out := runWithEnv(t, nil, dpv,
		"-checkpoint", j, "-checkpoint-every", "100", "-resume", cnfPath, tracePath)
	if code != 0 {
		t.Fatalf("resumed run exit %d:\n%s", code, out)
	}
	if out != baseOut {
		t.Fatalf("resumed stdout diverged:\n got %q\nwant %q", out, baseOut)
	}
	if _, err := os.Stat(j); !os.IsNotExist(err) {
		t.Errorf("journal still present after the resumed verdict (err=%v)", err)
	}
}

// TestExitCodeTerminated drives the SIGTERM half of the signal contract: a
// supervisor's polite kill must behave exactly like ^C for every
// long-running CLI — a partial-result dump, a journal left holding its
// last checkpoint when checkpointing, and exit 130. dratcheck in particular
// gained signal handling only together with this test, in both its modes;
// the checkpointed cases wait for a durable record before signalling so
// the stop provably lands mid-run.
func TestExitCodeTerminated(t *testing.T) {
	bins := buildCmds(t)
	dir := t.TempDir()
	cnfPath, tracePath, dratPath := writeChainFixtures(t, dir, 12000)
	hard := filepath.Join(dir, "php10.cnf")
	out, err := os.Create(hard)
	if err != nil {
		t.Fatal(err)
	}
	if err := cnf.WriteDimacs(out, gen.PHP(10).F); err != nil {
		t.Fatal(err)
	}
	out.Close()

	lratCNF, lratBig := writeBigLRAT(t, dir, 3_000_000)
	fwdCNF, fwdDRAT := writeLongForwardDRUP(t, dir, 20000, 10000)

	dpvJournal := filepath.Join(dir, "dpv-term.dpvj")
	dratJournal := filepath.Join(dir, "drat-term.dpvj")
	cases := []struct {
		name    string
		bin     string
		args    []string
		journal string        // wait for a durable checkpoint record before signalling
		sleep   time.Duration // journal-less cases: delay before signalling
	}{
		// -timeout backstops every case: if SIGTERM handling regresses the
		// run ends with exit 4 instead of wedging the test.
		{"bksat", "bksat", []string{"-timeout", "60s", hard}, "", 500 * time.Millisecond},
		{"dpv", "dpv", []string{"-timeout", "60s", "-checkpoint", dpvJournal,
			"-checkpoint-every", "100", cnfPath, tracePath}, dpvJournal, 0},
		{"dratcheck", "dratcheck", []string{"-backward", "-timeout", "60s", "-checkpoint", dratJournal,
			"-checkpoint-every", "100", cnfPath, dratPath}, dratJournal, 0},
		// lratcheck installs its handler before reading inputs, so a short
		// delay suffices; the multi-million-step proof keeps it parsing and
		// replaying well past the signal.
		{"lratcheck", "lratcheck", []string{"-timeout", "60s", lratCNF, lratBig}, "", 150 * time.Millisecond},
		// The forward check has no journal; its proof keeps it propagating
		// for seconds, well past the signal.
		{"dratcheck forward", "dratcheck", []string{"-timeout", "60s", fwdCNF, fwdDRAT}, "", 300 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bins, tc.bin), tc.args...)
			var buf bytes.Buffer
			cmd.Stdout = &buf
			cmd.Stderr = &buf
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			if tc.journal == "" {
				// Give the process time to install its handler and start.
				time.Sleep(tc.sleep)
			} else {
				deadline := time.Now().Add(30 * time.Second)
				for {
					if _, err := os.Stat(tc.journal); err == nil {
						break
					}
					if time.Now().After(deadline) {
						cmd.Process.Kill()
						t.Fatal("no checkpoint record appeared within 30s")
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			werr := cmd.Wait()
			ee, ok := werr.(*exec.ExitError)
			if !ok {
				t.Fatalf("wait: %v — run finished before SIGTERM landed\noutput:\n%s", werr, buf.String())
			}
			if code := ee.ExitCode(); code != 130 {
				t.Fatalf("exit code %d, want 130\noutput:\n%s", code, buf.String())
			}
			if !bytes.Contains(buf.Bytes(), []byte("s UNKNOWN")) {
				t.Fatalf("terminated run did not report a partial-result line:\n%s", buf.String())
			}
			if tc.journal != "" {
				data, err := os.ReadFile(tc.journal)
				if err != nil {
					t.Fatal(err)
				}
				_, payload, err := journal.Decode(data)
				if err == nil {
					_, err = core.DecodeCheckpoint(payload)
				}
				if err != nil {
					t.Fatalf("journal after SIGTERM: %v", err)
				}
			}
		})
	}
}

package repro

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/drat"
	"repro/internal/journal"
	"repro/internal/proof"
)

// Kill-and-recover: the built binaries are SIGKILLed at seeded checkpoint
// appends (the DPV_FAULT_CRASH_AFTER_APPENDS hook fires right after a record
// becomes durable — the exact state a power cut leaves) and restarted with
// -resume until they finish. The crash-safety contract is that the final
// verdict, exit code, stdout report, and every artifact written are
// byte-identical to an uninterrupted checkpointed run, for every verifier
// configuration: pv1/pv2 × watched/counting × sequential/chunked/DAG-
// scheduled parallel, resumes that switch between the sequential and DAG
// schedules, plus the DRAT backward checker.

// mkcl builds a clause from DIMACS literals.
func mkcl(lits ...int) cnf.Clause {
	c := make(cnf.Clause, len(lits))
	for i, l := range lits {
		c[i] = cnf.FromDimacs(l)
	}
	return c
}

// writeChainFixtures emits the implication chain x1, xi→xi+1, ¬xn with its
// unit-clause refutation in both proof formats. Deterministic and long — the
// point is a run that crosses many checkpoint boundaries, not a hard search.
func writeChainFixtures(t *testing.T, dir string, n int) (cnfPath, tracePath, dratPath string) {
	t.Helper()
	f := cnf.NewFormula(n)
	f.Clauses = append(f.Clauses, mkcl(1))
	for i := 1; i < n; i++ {
		f.Clauses = append(f.Clauses, mkcl(-i, i+1))
	}
	f.Clauses = append(f.Clauses, mkcl(-n))

	tr := proof.New()
	tr.Resolutions = nil
	for i := 2; i <= n; i++ {
		tr.Clauses = append(tr.Clauses, mkcl(i))
	}
	tr.Clauses = append(tr.Clauses, mkcl(-n))

	dp := &drat.Proof{}
	for i := 2; i <= n; i++ {
		dp.Add(mkcl(i))
	}
	dp.Add(nil)

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
	cnfPath = write("chain.cnf", func(o *os.File) error { return cnf.WriteDimacs(o, f) })
	tracePath = write("chain.trace", func(o *os.File) error { return proof.Write(o, tr) })
	dratPath = write("chain.drat", func(o *os.File) error { return drat.Write(o, dp) })
	return
}

// runWithEnv runs bin, returning the exit code (-1 when killed by a signal)
// and stdout only — stderr carries resume warnings that legitimately differ
// between the baseline and recovered runs.
func runWithEnv(t *testing.T, env []string, bin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stdout.String()
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stdout.String()
	}
	t.Fatalf("running %s %v: %v\nstderr:\n%s", bin, args, err, stderr.String())
	return -2, ""
}

// crashUntilDone runs the command under the crash hook, restarting with
// resumeArgs after every SIGKILL, until a run completes. It returns the
// final run's stdout and how many crashes were survived.
func crashUntilDone(t *testing.T, bin string, firstArgs, resumeArgs []string) (string, int) {
	t.Helper()
	env := []string{"DPV_FAULT_CRASH_AFTER_APPENDS=2"}
	args := firstArgs
	for cycle := 0; cycle < 60; cycle++ {
		code, out := runWithEnv(t, env, bin, args...)
		if code == 0 {
			return out, cycle
		}
		if code != -1 {
			t.Fatalf("cycle %d: exit code %d, want 0 (done) or -1 (SIGKILLed)\nstdout:\n%s", cycle, code, out)
		}
		args = resumeArgs
	}
	t.Fatal("60 crash/resume cycles without completing — resume is not making progress")
	return "", 0
}

func TestCrashRecoverMatrix(t *testing.T) {
	bins := buildCmds(t)
	fixtures := t.TempDir()
	const n = 4000
	cnfPath, tracePath, dratPath := writeChainFixtures(t, fixtures, n)
	every := strconv.Itoa(n / 8)
	dpv := filepath.Join(bins, "dpv")
	dratcheck := filepath.Join(bins, "dratcheck")
	lratcheck := filepath.Join(bins, "lratcheck")

	type config struct {
		name   string
		args   []string // verifier configuration flags
		resume []string // flags of the resumed runs; nil reuses args
		core   bool     // sequential configs also compare the core and LRAT artifacts
	}
	var cfgs []config
	for _, eng := range []string{"watched", "counting"} {
		cfgs = append(cfgs,
			config{"pv2-" + eng, []string{"-engine", eng}, nil, true},
			config{"pv1-" + eng, []string{"-all", "-engine", eng}, nil, true},
			config{"par-" + eng, []string{"-par", "3", "-engine", eng}, nil, false},
			// The DAG schedule is the sequential checker plus a hinted
			// recheck, so unlike the chunked config it compares core and
			// LRAT artifacts too.
			config{"dag-" + eng, []string{"-par", "3", "-sched", "dag", "-engine", eng}, nil, true},
		)
	}
	// A -sched dag run journals only its sequential pass, under the
	// sequential journal kind, so each schedule resumes the other's journal.
	dag := []string{"-par", "3", "-sched", "dag"}
	cfgs = append(cfgs,
		config{"dag-then-seq", dag, []string{}, true},
		config{"seq-then-dag", []string{}, dag, true},
	)

	for _, tc := range cfgs {
		tc := tc
		t.Run("dpv/"+tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			mkArgs := func(tag string, resume bool) []string {
				args := append([]string{}, tc.args...)
				if resume && tc.resume != nil {
					args = append([]string{}, tc.resume...)
				}
				args = append(args, "-checkpoint", filepath.Join(dir, tag+".dpvj"), "-checkpoint-every", every)
				if resume {
					args = append(args, "-resume")
				}
				if tc.core {
					args = append(args, "-core", filepath.Join(dir, tag+".core"),
						"-emit-lrat", filepath.Join(dir, tag+".lrat"))
				}
				return append(args, cnfPath, tracePath)
			}

			code, baseOut := runWithEnv(t, nil, dpv, mkArgs("base", false)...)
			if code != 0 {
				t.Fatalf("baseline exit %d:\n%s", code, baseOut)
			}
			out, crashes := crashUntilDone(t, dpv, mkArgs("crash", false), mkArgs("crash", true))
			if crashes == 0 {
				t.Fatal("run completed without a single injected crash — hook not biting")
			}
			if out != baseOut {
				t.Errorf("recovered stdout diverged after %d crashes:\n got %q\nwant %q", crashes, out, baseOut)
			}
			if tc.core {
				for _, ext := range []string{".core", ".lrat"} {
					base, err := os.ReadFile(filepath.Join(dir, "base"+ext))
					if err != nil {
						t.Fatal(err)
					}
					rec, err := os.ReadFile(filepath.Join(dir, "crash"+ext))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(base, rec) {
						t.Errorf("recovered %s artifact is not byte-identical to the baseline", ext)
					}
				}
				// The emitted hinted proof must round-trip through lratcheck.
				if code, out := runWithEnv(t, nil, lratcheck, "-q", cnfPath, filepath.Join(dir, "base.lrat")); code != 0 {
					t.Errorf("lratcheck rejected the emitted proof (exit %d):\n%s", code, out)
				}
			}
			// A verdict was reached, so both journals must be gone.
			for _, tag := range []string{"base", "crash"} {
				if _, err := os.Stat(filepath.Join(dir, tag+".dpvj")); !os.IsNotExist(err) {
					t.Errorf("journal %s.dpvj still present after a verdict (err=%v)", tag, err)
				}
			}
			t.Logf("recovered across %d crashes", crashes)
		})
	}

	t.Run("dratcheck/backward", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		mkArgs := func(tag string, resume bool) []string {
			args := []string{"-backward",
				"-checkpoint", filepath.Join(dir, tag+".dpvj"), "-checkpoint-every", every,
				"-trim", filepath.Join(dir, tag+".drat"), "-core", filepath.Join(dir, tag+".core"),
				"-emit-lrat", filepath.Join(dir, tag+".lrat")}
			if resume {
				args = append(args, "-resume")
			}
			return append(args, cnfPath, dratPath)
		}
		code, baseOut := runWithEnv(t, nil, dratcheck, mkArgs("base", false)...)
		if code != 0 {
			t.Fatalf("baseline exit %d:\n%s", code, baseOut)
		}
		out, crashes := crashUntilDone(t, dratcheck, mkArgs("crash", false), mkArgs("crash", true))
		if crashes == 0 {
			t.Fatal("run completed without a single injected crash — hook not biting")
		}
		if out != baseOut {
			t.Errorf("recovered stdout diverged after %d crashes:\n got %q\nwant %q", crashes, out, baseOut)
		}
		for _, ext := range []string{".drat", ".core", ".lrat"} {
			base, err := os.ReadFile(filepath.Join(dir, "base"+ext))
			if err != nil {
				t.Fatal(err)
			}
			rec, err := os.ReadFile(filepath.Join(dir, "crash"+ext))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(base, rec) {
				t.Errorf("recovered %s artifact is not byte-identical to the baseline", ext)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "crash.dpvj")); !os.IsNotExist(err) {
			t.Errorf("journal still present after a verdict (err=%v)", err)
		}
		if code, lout := runWithEnv(t, nil, lratcheck, "-q", cnfPath, filepath.Join(dir, "base.lrat")); code != 0 {
			t.Errorf("lratcheck rejected the emitted proof (exit %d):\n%s", code, lout)
		}
		t.Logf("recovered across %d crashes", crashes)
	})
}

// TestResumeIgnoresRetiredDAGJournal offers dpv -resume a journal whose
// header carries kind 4, which older binaries wrote for a retired two-phase
// DAG-scheduled pipeline (its payloads were checkpoint version 3). Every
// other header field matches the run, so only the kind can refuse it: dpv
// must warn, run from scratch, and reach the uninterrupted run's verdict.
func TestResumeIgnoresRetiredDAGJournal(t *testing.T) {
	bins := buildCmds(t)
	dir := t.TempDir()
	cnfPath, tracePath, _ := writeChainFixtures(t, dir, 500)
	dpv := filepath.Join(bins, "dpv")
	// Checkpointing rebuilds the engine at every interval boundary, which
	// shows in the propagation count: the baseline checkpoints too.
	code, baseOut := runWithEnv(t, nil, dpv,
		"-checkpoint", filepath.Join(dir, "base.dpvj"), "-checkpoint-every", "100", cnfPath, tracePath)
	if code != 0 {
		t.Fatalf("baseline exit %d:\n%s", code, baseOut)
	}

	fin, err := os.Open(cnfPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := cnf.ParseDimacs(fin)
	fin.Close()
	if err != nil {
		t.Fatal(err)
	}
	pin, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := proof.Read(pin)
	pin.Close()
	if err != nil {
		t.Fatal(err)
	}
	j := filepath.Join(dir, "old.dpvj")
	jw, err := journal.Create(j, journal.Meta{
		Kind:      journal.Kind(4),
		Mode:      uint8(core.ModeCheckMarked),
		Engine:    uint8(core.EngineWatched),
		Interval:  100,
		FormulaFP: journal.FingerprintFormula(f),
		ProofFP:   journal.FingerprintTrace(tr),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A version-3 record: version byte 3, flag byte 2, then the state.
	if err := jw.Append(append([]byte{3, 2}, make([]byte, 96)...)); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(dpv, "-par", "3", "-sched", "dag",
		"-checkpoint", j, "-checkpoint-every", "100", "-resume", cnfPath, tracePath)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("resume over a kind-4 journal: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "not resuming") || !strings.Contains(stderr.String(), "running from scratch") {
		t.Errorf("no fallback warning on stderr:\n%s", stderr.String())
	}
	if stdout.String() != baseOut {
		t.Errorf("stdout diverged from an uninterrupted run:\n got %q\nwant %q", stdout.String(), baseOut)
	}
}

// TestCrashHookFiresAfterDurableAppend pins the crash point itself: a killed
// run must leave a journal whose records are readable up to (at least) the
// append the hook fired on — the record is durable before the SIGKILL.
func TestCrashHookFiresAfterDurableAppend(t *testing.T) {
	bins := buildCmds(t)
	dir := t.TempDir()
	cnfPath, tracePath, _ := writeChainFixtures(t, dir, 2000)
	j := filepath.Join(dir, "ck.dpvj")
	code, out := runWithEnv(t, []string{"DPV_FAULT_CRASH_AFTER_APPENDS=1"}, filepath.Join(bins, "dpv"),
		"-q", "-checkpoint", j, "-checkpoint-every", "100", cnfPath, tracePath)
	if code != -1 {
		t.Fatalf("exit code %d, want SIGKILL death\n%s", code, out)
	}
	data, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	markers := journalMarkers(t, data)
	if len(markers) != 1 || markers[0] != 'C' {
		t.Fatalf("journal after crash-at-append-1 holds records %q, want exactly one checkpoint", markers)
	}
}

// journalMarkers parses the record markers of a journal's complete frames.
func journalMarkers(t *testing.T, data []byte) []byte {
	t.Helper()
	const headerSize = 40
	if len(data) < headerSize {
		t.Fatalf("journal is %d bytes, shorter than its header", len(data))
	}
	var markers []byte
	rest := data[headerSize:]
	for len(rest) >= 5 {
		n := int(uint32(rest[1]) | uint32(rest[2])<<8 | uint32(rest[3])<<16 | uint32(rest[4])<<24)
		total := 5 + n + 4
		if len(rest) < total {
			break // torn tail
		}
		markers = append(markers, rest[0])
		rest = rest[total:]
	}
	return markers
}

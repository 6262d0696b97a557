package repro

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/drat"
	"repro/internal/gen"
	"repro/internal/journal"
	"repro/internal/lrat"
	"repro/internal/proof"
	"repro/internal/solver"
)

// Kill-and-recover: the built binaries are SIGKILLed at seeded checkpoint
// appends (the DPV_FAULT_CRASH_AFTER_APPENDS hook fires right after a record
// becomes durable — the exact state a power cut leaves) and restarted with
// -resume until they finish. The crash-safety contract is that the final
// verdict, exit code, stdout report, and every artifact written are
// byte-identical to an uninterrupted checkpointed run, for every verifier
// configuration that keeps checkpoints: pv1/pv2 × watched/counting ×
// sequential/DAG-scheduled parallel, resumes that switch between the
// sequential and DAG schedules, plus dratcheck -backward with and without
// deletion lines. (Chunked -par runs keep no checkpoints.)

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

// readFile parses a file the fixtures wrote.
func readFile[T any](t *testing.T, path string, parse func(io.Reader) (T, error)) T {
	t.Helper()
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	v, err := parse(in)
	if err != nil {
		t.Fatal(err)
	}
	return v
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
	}
	var cfgs []config
	for _, eng := range []string{"watched", "counting"} {
		cfgs = append(cfgs,
			config{"pv2-" + eng, []string{"-engine", eng}, nil},
			config{"pv1-" + eng, []string{"-all", "-engine", eng}, nil},
			// The DAG schedule is the sequential checker plus a hinted
			// recheck.
			config{"dag-" + eng, []string{"-par", "3", "-sched", "dag", "-engine", eng}, nil},
		)
	}
	// A -sched dag run journals only its sequential pass, exactly as a
	// sequential run does, so each schedule resumes the other's journal.
	dag := []string{"-par", "3", "-sched", "dag"}
	cfgs = append(cfgs,
		config{"dag-then-seq", dag, []string{}},
		config{"seq-then-dag", []string{}, dag},
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
				args = append(args, "-core", filepath.Join(dir, tag+".core"),
					"-emit-lrat", filepath.Join(dir, tag+".lrat"))
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
			// A verdict was reached, so both journals must be gone.
			for _, tag := range []string{"base", "crash"} {
				if _, err := os.Stat(filepath.Join(dir, tag+".dpvj")); !os.IsNotExist(err) {
					t.Errorf("journal %s.dpvj still present after a verdict (err=%v)", tag, err)
				}
			}
			t.Logf("recovered across %d crashes", crashes)
		})
	}

	delCNF, delDRAT := writeDeletionFixtures(t, fixtures)
	for _, tc := range []struct{ name, cnf, proof, every string }{
		{"backward", cnfPath, dratPath, every},
		// A solver-recorded proof with deletion lines: resumed runs must
		// undo the same deletions as the uninterrupted one.
		{"backward-deletions", delCNF, delDRAT, "64"},
	} {
		tc := tc
		t.Run("dratcheck/"+tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			mkArgs := func(tag string, resume bool) []string {
				args := []string{"-backward",
					"-checkpoint", filepath.Join(dir, tag+".dpvj"), "-checkpoint-every", tc.every,
					"-trim", filepath.Join(dir, tag+".drat"), "-core", filepath.Join(dir, tag+".core"),
					"-emit-lrat", filepath.Join(dir, tag+".lrat")}
				if resume {
					args = append(args, "-resume")
				}
				return append(args, tc.cnf, tc.proof)
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
			if code, lout := runWithEnv(t, nil, lratcheck, "-q", tc.cnf, filepath.Join(dir, "base.lrat")); code != 0 {
				t.Errorf("lratcheck rejected the emitted proof (exit %d):\n%s", code, lout)
			}
			t.Logf("recovered across %d crashes", crashes)
		})
	}
}

// writeDeletionFixtures records a DRUP proof with deletion lines for php_6
// (the solver settings of drat's resume tests) and writes it with its
// formula.
func writeDeletionFixtures(t *testing.T, dir string) (cnfPath, dratPath string) {
	t.Helper()
	inst := gen.PHP(6)
	rec := drat.NewRecorder()
	opts := solver.Options{MaxLearnedFactor: 0.1, RestartInterval: 30, OnLearn: rec.Learn, OnDelete: rec.Delete}
	if st, _, _, _, err := solver.Solve(inst.F, opts); err != nil || st != solver.Unsat {
		t.Fatalf("solving php_6: %v %v", st, err)
	}
	if rec.Proof().Deletions() == 0 {
		t.Fatal("want a proof with deletion lines")
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
	cnfPath = write("php6.cnf", func(o *os.File) error { return cnf.WriteDimacs(o, inst.F) })
	dratPath = write("php6.drat", func(o *os.File) error { return drat.Write(o, rec.Proof()) })
	return
}

// TestResumeIgnoresRetiredJournals offers dpv and dratcheck -backward
// -resume journals that older binaries wrote and this one no longer
// resumes. Older binaries wrote format-1 journals, an append-only log
// behind a header naming the verifier kind: kind 2 for chunked dpv -par
// runs, 3 for drat's own backward checker, 4 for a two-phase DAG-scheduled
// pipeline, and kind 1 for sequential runs, here with a payload of
// retired version 1 (written before runs without hints propagated
// core-first). Every other header field matches the run and every CRC is
// valid, but the file's format version refuses it. A current-format
// journal carrying that version-1 payload gets past the file checks and is
// refused by the payload version. In every case the tool must warn, run
// from scratch and print an uninterrupted run's stdout — never decode the
// old record as a current checkpoint.
func TestResumeIgnoresRetiredJournals(t *testing.T) {
	bins := buildCmds(t)
	dir := t.TempDir()
	cnfPath, tracePath, dratPath := writeChainFixtures(t, dir, 500)
	dpv := filepath.Join(bins, "dpv")
	dratcheck := filepath.Join(bins, "dratcheck")
	const every = 100

	f := readFile(t, cnfPath, cnf.ParseDimacs)
	tr := readFile(t, tracePath, proof.Read)
	dp := readFile(t, dratPath, drat.Read)

	// dpv removes its journal after a clean run, so take a sequential
	// record from the same run made in-process.
	var seqRecord []byte
	_, err := core.Verify(f, tr, core.Options{Checkpoint: core.CheckpointConfig{Every: every,
		Sink: func(p []byte) error {
			if seqRecord == nil {
				seqRecord = append([]byte(nil), p...)
			}
			return nil
		}}})
	if err != nil || seqRecord == nil {
		t.Fatalf("in-process run: err %v, %d-byte record", err, len(seqRecord))
	}
	// A chunked run's version-1 record: flag byte 1, the worker count, then
	// per worker its next index (each at its chunk's top, 167 clauses a
	// chunk), tested and tautology counts and five bcp counters.
	parRecord := binary.LittleEndian.AppendUint64([]byte{1, 1}, 3)
	for _, next := range []uint64{166, 333, 499} {
		parRecord = binary.LittleEndian.AppendUint64(parRecord, next)
		parRecord = append(parRecord, make([]byte, 7*8)...)
	}
	// drat's own record: version byte 1 (which core's payloads used too),
	// next step, tautologies, propagations, bitmap length, bitmap.
	nIDs := f.NumClauses() + dp.Additions() - 1
	dratRecord := append([]byte{1}, make([]byte, 24)...)
	dratRecord = append(dratRecord, byte(nIDs), byte(nIDs>>8), 0, 0, 0, 0, 0, 0)
	dratRecord = append(dratRecord, make([]byte, (nIDs+7)/8)...)

	formulaFP, traceFP := journal.FingerprintFormula(f), journal.FingerprintTrace(tr)
	// v1File lays out a format-1 journal: the header (magic, version 1,
	// kind, mode, engine, a pad byte, the worker count kind 2 kept, the
	// interval, the fingerprints, a CRC over bytes 8-36), then the record
	// as one 'C' frame (marker, length, payload, CRC over the frame).
	v1File := func(kind byte, mode core.Mode, workers uint32, proofFP uint64, record []byte) []byte {
		h := binary.LittleEndian.AppendUint32([]byte(journal.Magic), 1)
		h = append(h, kind, uint8(mode), uint8(core.EngineWatched), 0)
		h = binary.LittleEndian.AppendUint32(h, workers)
		h = binary.LittleEndian.AppendUint32(h, every)
		h = binary.LittleEndian.AppendUint64(h, formulaFP)
		h = binary.LittleEndian.AppendUint64(h, proofFP)
		h = binary.LittleEndian.AppendUint32(h, crc32.ChecksumIEEE(h[8:36]))
		frame := binary.LittleEndian.AppendUint32([]byte{'C'}, uint32(len(record)))
		frame = append(frame, record...)
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
		return append(h, frame...)
	}
	seqV1 := append([]byte{1}, seqRecord[1:]...) // a real record, version byte rewritten
	var v2File bytes.Buffer
	if err := journal.Encode(&v2File, journal.Meta{Mode: uint8(core.ModeCheckMarked),
		Engine: uint8(core.EngineWatched), Interval: every, FormulaFP: formulaFP, ProofFP: traceFP}, seqV1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		bin   string
		flags []string // the baseline's and the resumed run's
		proof string
		file  []byte
		why   string // in the fallback warning
	}{
		// A version-3 record: version byte 3, flag byte 2, then the state.
		{"dag-kind4", dpv, []string{"-par", "3", "-sched", "dag"}, tracePath,
			v1File(4, core.ModeCheckMarked, 0, traceFP, append([]byte{3, 2}, make([]byte, 96)...)),
			"version skew"},
		{"seq-v1", dpv, nil, tracePath,
			v1File(1, core.ModeCheckMarked, 0, traceFP, seqV1), "version skew"},
		{"seq-v1-payload", dpv, nil, tracePath, v2File.Bytes(), "payload version 1"},
		// Chunked runs journaled in check-all mode; -all is the sequential
		// run that would otherwise match.
		{"par-kind2", dpv, []string{"-all"}, tracePath,
			v1File(2, core.ModeCheckAll, 3, traceFP, parRecord), "version skew"},
		{"drat-kind3", dratcheck, []string{"-backward"}, dratPath,
			v1File(3, core.ModeCheckMarked, 0, dp.Fingerprint(), dratRecord), "version skew"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := func(journalPath string, resume bool) []string {
				a := append([]string{}, tc.flags...)
				a = append(a, "-checkpoint", journalPath, "-checkpoint-every", strconv.Itoa(every))
				if resume {
					a = append(a, "-resume")
				}
				return append(a, cnfPath, tc.proof)
			}
			// Checkpointing resets the engine at every interval boundary,
			// which shows in the propagation count: the baseline
			// checkpoints too.
			code, baseOut := runWithEnv(t, nil, tc.bin, args(filepath.Join(dir, tc.name+"-base.dpvj"), false)...)
			if code != 0 {
				t.Fatalf("baseline exit %d:\n%s", code, baseOut)
			}

			j := filepath.Join(dir, tc.name+".dpvj")
			if err := os.WriteFile(j, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}

			cmd := exec.Command(tc.bin, args(j, true)...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("resume over a retired journal: %v\nstderr:\n%s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), "not resuming") || !strings.Contains(stderr.String(), "running from scratch") ||
				!strings.Contains(stderr.String(), tc.why) {
				t.Errorf("no fallback warning naming %q on stderr:\n%s", tc.why, stderr.String())
			}
			if stdout.String() != baseOut {
				t.Errorf("stdout diverged from an uninterrupted run:\n got %q\nwant %q", stdout.String(), baseOut)
			}
		})
	}
}

// TestResumeRefusesUnfitRecord offers dpv -resume and dratcheck -backward
// -resume a journal whose header matches the run and whose one record has a
// valid CRC, but whose next index lies past the trace. Only the record's
// fit to the run can refuse it: both tools must warn, run from scratch, exit
// 0 and write the same core and trimmed proof as a fresh run.
func TestResumeRefusesUnfitRecord(t *testing.T) {
	bins := buildCmds(t)
	dir := t.TempDir()
	inst := gen.PHP(6)
	st, tr, _, _, err := solver.Solve(inst.F, solver.Options{})
	if err != nil || st != solver.Unsat {
		t.Fatalf("solving php_6: %v %v", st, err)
	}
	dp := drat.FromTrace(tr)
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
	cnfPath := write("php6.cnf", func(o *os.File) error { return cnf.WriteDimacs(o, inst.F) })
	tracePath := write("php6.trace", func(o *os.File) error { return proof.Write(o, tr) })
	dratPath := write("php6.drat", func(o *os.File) error { return drat.Write(o, dp) })

	const every = 50
	// forge takes the first record of an in-process run, moves its next
	// index past the trace and writes it as the journal's only record.
	forge := func(path string, proofFP uint64, run func(core.Options) error) {
		var payload []byte
		err := run(core.Options{Checkpoint: core.CheckpointConfig{Every: every,
			Sink: func(p []byte) error {
				if payload == nil {
					payload = append([]byte(nil), p...)
				}
				return nil
			}}})
		if err != nil || payload == nil {
			t.Fatalf("in-process run: err %v, %d-byte record", err, len(payload))
		}
		cp, err := core.DecodeCheckpoint(payload)
		if err != nil {
			t.Fatal(err)
		}
		cp.NextIndex = len(cp.Marked) + 5
		err = journal.Write(path, journal.Meta{
			Mode:      uint8(core.ModeCheckMarked),
			Engine:    uint8(core.EngineWatched),
			Interval:  every,
			FormulaFP: journal.FingerprintFormula(inst.F),
			ProofFP:   proofFP,
		}, cp.Encode(), nil)
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name, bin string
		flags     []string
		proofPath string
		proofFP   uint64
		run       func(core.Options) error
	}{
		{"dpv", "dpv", nil, tracePath, journal.FingerprintTrace(tr),
			func(opt core.Options) error { _, err := core.Verify(inst.F, tr, opt); return err }},
		{"dratcheck", "dratcheck", []string{"-backward"}, dratPath, dp.Fingerprint(),
			func(opt core.Options) error { _, _, _, err := drat.VerifyBackward(inst.F, dp, opt); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bin := filepath.Join(bins, tc.bin)
			args := func(tag string, resume bool) []string {
				a := append([]string{}, tc.flags...)
				a = append(a, "-checkpoint", filepath.Join(dir, tag+".dpvj"), "-checkpoint-every", strconv.Itoa(every),
					"-core", filepath.Join(dir, tag+".core"), "-trim", filepath.Join(dir, tag+".trim"))
				if resume {
					a = append(a, "-resume")
				}
				return append(a, cnfPath, tc.proofPath)
			}
			base, forged := tc.name+"-base", tc.name+"-forged"
			code, baseOut := runWithEnv(t, nil, bin, args(base, false)...)
			if code != 0 {
				t.Fatalf("fresh run exit %d:\n%s", code, baseOut)
			}
			forge(filepath.Join(dir, forged+".dpvj"), tc.proofFP, tc.run)

			cmd := exec.Command(bin, args(forged, true)...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("resume over an unfit record: %v\nstderr:\n%s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), "not resuming") || !strings.Contains(stderr.String(), "running from scratch") {
				t.Errorf("no fallback warning on stderr:\n%s", stderr.String())
			}
			if stdout.String() != baseOut {
				t.Errorf("stdout diverged from a fresh run:\n got %q\nwant %q", stdout.String(), baseOut)
			}
			for _, ext := range []string{".core", ".trim"} {
				want, err := os.ReadFile(filepath.Join(dir, base+ext))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(dir, forged+ext))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s output differs from a fresh run's", ext)
				}
			}
		})
	}
}

// TestCrashHookFiresAfterDurableAppend pins the crash point itself: a run
// killed by the hook right after its Nth record must leave a journal that
// is exactly that record — the header, the Nth payload an uninterrupted
// in-process run writes, and the CRC — and nothing else: records replace
// each other, so the file never grows past one. The hinted row's records
// carry the whole hint log so far, which shows when an earlier record is
// left over.
func TestCrashHookFiresAfterDurableAppend(t *testing.T) {
	bins := buildCmds(t)
	dir := t.TempDir()
	cnfPath, tracePath, _ := writeChainFixtures(t, dir, 2000)
	f := readFile(t, cnfPath, cnf.ParseDimacs)
	tr := readFile(t, tracePath, proof.Read)
	const every = 100
	for _, tc := range []struct {
		name   string
		n      int
		hinted bool
	}{
		{"unhinted-1", 1, false},
		{"hinted-3", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sub := filepath.Join(dir, tc.name)
			if err := os.Mkdir(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			j := filepath.Join(sub, "ck.dpvj")
			args := []string{"-q", "-checkpoint", j, "-checkpoint-every", strconv.Itoa(every)}
			opt := core.Options{}
			if tc.hinted {
				args = append(args, "-emit-lrat", filepath.Join(sub, "out.lrat"))
				opt.Hints = new(lrat.Recorder)
			}
			var record []byte
			records := 0
			opt.Checkpoint = core.CheckpointConfig{Every: every, Sink: func(p []byte) error {
				if records++; records == tc.n {
					record = append([]byte(nil), p...)
				}
				return nil
			}}
			if _, err := core.Verify(f, tr, opt); err != nil || record == nil {
				t.Fatalf("in-process run: err %v, %d records", err, records)
			}
			env := []string{"DPV_FAULT_CRASH_AFTER_APPENDS=" + strconv.Itoa(tc.n)}
			code, out := runWithEnv(t, env, filepath.Join(bins, "dpv"), append(args, cnfPath, tracePath)...)
			if code != -1 {
				t.Fatalf("exit code %d, want SIGKILL death\n%s", code, out)
			}
			var want bytes.Buffer
			if err := journal.Encode(&want, journal.Meta{Interval: every,
				FormulaFP: journal.FingerprintFormula(f), ProofFP: journal.FingerprintTrace(tr)}, record); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(j)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want.Bytes()) {
				t.Fatalf("journal after crash-at-record-%d is %d bytes, want header + record %d (%d bytes) + CRC = %d bytes",
					tc.n, len(data), tc.n, len(record), want.Len())
			}
			if ents, err := os.ReadDir(sub); err != nil || len(ents) != 1 {
				t.Fatalf("crash left %d entries beside nothing but the journal (err %v)", len(ents), err)
			}
		})
	}
}

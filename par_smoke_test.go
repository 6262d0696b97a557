package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// Parallel-schedule smoke: the same proof driven through dpv sequentially,
// with the fixed-chunk split, and with the DAG schedule. The verdict line
// must agree everywhere, and because the DAG schedule is the sequential
// checker followed by a hinted recheck, its stdout and its core, trim and
// LRAT artifacts must be byte-identical to the sequential run's — the
// chunked mode cannot produce them at all.
func TestParSmoke(t *testing.T) {
	bins := buildCmds(t)
	fixtures := t.TempDir()
	const n = 1500
	cnfPath, tracePath, _ := writeChainFixtures(t, fixtures, n)
	dpv := filepath.Join(bins, "dpv")
	lratcheck := filepath.Join(bins, "lratcheck")
	dir := t.TempDir()

	artifacts := func(tag string, extra ...string) []string {
		args := append([]string{}, extra...)
		args = append(args, "-core", filepath.Join(dir, tag+".core"),
			"-trim", filepath.Join(dir, tag+".trim"),
			"-emit-lrat", filepath.Join(dir, tag+".lrat"))
		return append(args, cnfPath, tracePath)
	}

	code, seqOut := runWithEnv(t, nil, dpv, artifacts("seq")...)
	if code != 0 {
		t.Fatalf("sequential exit %d:\n%s", code, seqOut)
	}
	code, dagOut := runWithEnv(t, nil, dpv, artifacts("dag", "-par", "4", "-sched", "dag")...)
	if code != 0 {
		t.Fatalf("dag exit %d:\n%s", code, dagOut)
	}
	if dagOut != seqOut {
		t.Errorf("dag stdout diverged from sequential:\n got %q\nwant %q", dagOut, seqOut)
	}
	for _, ext := range []string{".core", ".trim", ".lrat"} {
		seq, err := os.ReadFile(filepath.Join(dir, "seq"+ext))
		if err != nil {
			t.Fatal(err)
		}
		dag, err := os.ReadFile(filepath.Join(dir, "dag"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seq, dag) {
			t.Errorf("dag %s artifact is not byte-identical to the sequential one", ext)
		}
	}

	// The chunked schedule reaches the same verdict (its report differs:
	// check-all counters, no core line).
	code, chunkOut := runWithEnv(t, nil, dpv, "-par", "4", "-sched", "chunk", cnfPath, tracePath)
	if code != 0 {
		t.Fatalf("chunk exit %d:\n%s", code, chunkOut)
	}
	const verdict = "s PROOF VERIFIED\n"
	if !bytes.HasPrefix([]byte(chunkOut), []byte(verdict)) || !bytes.HasPrefix([]byte(seqOut), []byte(verdict)) {
		t.Fatalf("verdict lines diverged:\nchunk %q\nseq %q", chunkOut, seqOut)
	}

	// The recorded proof replays under both lratcheck schedules.
	for _, sched := range []string{"chunk", "dag"} {
		code, out := runWithEnv(t, nil, lratcheck,
			"-q", "-par", strconv.Itoa(4), "-sched", sched, cnfPath, filepath.Join(dir, "dag.lrat"))
		if code != 0 {
			t.Errorf("lratcheck -sched %s rejected the emitted proof (exit %d):\n%s", sched, code, out)
		}
	}
}

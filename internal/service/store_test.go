package service

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cnf"
	"repro/internal/journal"
	"repro/internal/proof"
)

// chainProblem builds the implication chain x1, xi→xi+1, ¬xn with its
// unit-clause refutation — a verified instance of tunable size.
func chainProblem(n int) (*cnf.Formula, *proof.Trace) {
	mk := func(lits ...int) cnf.Clause {
		c := make(cnf.Clause, len(lits))
		for i, l := range lits {
			c[i] = cnf.FromDimacs(l)
		}
		return c
	}
	f := cnf.NewFormula(n)
	f.Clauses = append(f.Clauses, mk(1))
	for i := 1; i < n; i++ {
		f.Clauses = append(f.Clauses, mk(-i, i+1))
	}
	f.Clauses = append(f.Clauses, mk(-n))
	tr := proof.New()
	tr.Resolutions = nil
	for i := 2; i <= n; i++ {
		tr.Clauses = append(tr.Clauses, mk(i))
	}
	tr.Clauses = append(tr.Clauses, mk(-n))
	return f, tr
}

func testJob(id string, seq uint64) *Job {
	return &Job{ID: id, Tenant: "default", Seq: seq, NumVars: 5, NumClauses: 7, ProofClauses: 5}
}

func validTestID(n byte) string {
	b := make([]byte, 32)
	for i := range b {
		b[i] = 'a'
	}
	b[31] = '0' + n
	return string(b)
}

func storeImpls(t *testing.T) map[string]Store {
	t.Helper()
	ds, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMemStore(), "disk": ds}
}

// The Store contract, run against both implementations.
func TestStoreContract(t *testing.T) {
	for name, st := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			f, tr := chainProblem(5)
			id := validTestID(1)
			if _, err := st.Job(id); !errors.Is(err, ErrUnknownJob) {
				t.Fatalf("Job(unknown) = %v, want ErrUnknownJob", err)
			}
			if err := st.Create(testJob(id, 1), f, tr); err != nil {
				t.Fatal(err)
			}
			job, err := st.Job(id)
			if err != nil || job.Seq != 1 || job.Tenant != "default" {
				t.Fatalf("Job = %+v, %v", job, err)
			}
			gf, gtr, err := st.Artifacts(id)
			if err != nil {
				t.Fatal(err)
			}
			if gf.NumClauses() != f.NumClauses() || gtr.Len() != tr.Len() {
				t.Fatalf("artifacts round-trip: %d clauses / %d trace, want %d / %d",
					gf.NumClauses(), gtr.Len(), f.NumClauses(), tr.Len())
			}
			if jr, err := st.Result(id); err != nil || jr != nil {
				t.Fatalf("Result before SetResult = %v, %v; want nil, nil", jr, err)
			}
			inc, err := st.Incomplete()
			if err != nil || len(inc) != 1 || inc[0].ID != id {
				t.Fatalf("Incomplete = %v, %v; want the one job", inc, err)
			}
			want := &JobResult{Status: StatusVerified, Code: 0, Attempts: 1}
			if err := st.SetResult(id, want); err != nil {
				t.Fatal(err)
			}
			got, err := st.Result(id)
			if err != nil || got == nil || got.Status != StatusVerified {
				t.Fatalf("Result = %+v, %v", got, err)
			}
			if inc, _ := st.Incomplete(); len(inc) != 0 {
				t.Fatalf("Incomplete after result = %v, want empty", inc)
			}
			if seq, err := st.MaxSeq(); err != nil || seq != 1 {
				t.Fatalf("MaxSeq = %d, %v; want 1", seq, err)
			}
			if err := st.Ping(); err != nil {
				t.Fatalf("Ping = %v", err)
			}
		})
	}
}

func TestStoreIncompleteOrder(t *testing.T) {
	for name, st := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			f, tr := chainProblem(3)
			// Created out of Seq order; Incomplete must sort by Seq.
			for i, seq := range []uint64{3, 1, 2} {
				if err := st.Create(testJob(validTestID(byte(i)), seq), f, tr); err != nil {
					t.Fatal(err)
				}
			}
			inc, err := st.Incomplete()
			if err != nil || len(inc) != 3 {
				t.Fatalf("Incomplete = %v, %v", inc, err)
			}
			for i, want := range []uint64{1, 2, 3} {
				if inc[i].Seq != want {
					t.Fatalf("Incomplete[%d].Seq = %d, want %d", i, inc[i].Seq, want)
				}
			}
		})
	}
}

func TestDiskStoreRejectsHostileIDs(t *testing.T) {
	ds, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, tr := chainProblem(3)
	for _, id := range []string{"", "../../etc/passwd", "abc", validTestID(1) + "x", "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"} {
		if err := ds.Create(testJob(id, 1), f, tr); err == nil {
			t.Fatalf("Create(%q) accepted a hostile id", id)
		}
		if _, err := ds.Job(id); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("Job(%q) = %v, want ErrUnknownJob", id, err)
		}
		if p := ds.JournalPath(id); p != "" {
			t.Fatalf("JournalPath(%q) = %q, want empty", id, p)
		}
	}
}

// A job directory without job.json is a half-finished admission: the client
// never saw a 202 for it, and startup must clear it out.
func TestDiskStoreSweepsAbortedAdmissions(t *testing.T) {
	root := t.TempDir()
	ds, err := NewDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	f, tr := chainProblem(3)
	good := validTestID(1)
	if err := ds.Create(testJob(good, 1), f, tr); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-Create: artifacts present, job.json absent.
	aborted := filepath.Join(root, "jobs", validTestID(2))
	if err := os.MkdirAll(aborted, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(aborted, "formula.cnf"), []byte("p cnf 1 1\n1 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := NewDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(aborted); !os.IsNotExist(err) {
		t.Fatal("aborted admission directory survived reopen")
	}
	if _, err := reopened.Job(good); err != nil {
		t.Fatalf("committed job lost by sweep: %v", err)
	}
}

// A crash between an atomic write's temp file and its rename leaves the
// temp file behind. Reopening the store must remove one left beside each
// artifact of a done job, an incomplete job and a replica, and keep every
// artifact itself.
func TestDiskStoreSweepsTempFiles(t *testing.T) {
	root := t.TempDir()
	ds, err := NewDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	f, tr := chainProblem(3)
	done, running, replica := validTestID(1), validTestID(2), validTestID(3)
	for i, id := range []string{done, running} {
		if err := ds.Create(testJob(id, uint64(i+1)), f, tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.SetLRAT(done, []byte("lrat\n")); err != nil {
		t.Fatal(err)
	}
	if err := ds.SetResult(done, &JobResult{Status: StatusVerified, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := journal.Write(ds.JournalPath(running), journal.Meta{}, []byte("record"), nil); err != nil {
		t.Fatal(err)
	}
	rep := testJob(replica, 3)
	rep.Replica = true
	if err := ds.PutReplica(rep, f, &JobResult{Status: StatusVerified, Attempts: 1}, []byte("lrat\n")); err != nil {
		t.Fatal(err)
	}

	artifacts := map[string][]string{
		done:    {"formula.cnf", "proof.trace", "job.json", "proof.lrat", "result.json"},
		running: {"formula.cnf", "proof.trace", "job.json", "ck.dpvj"},
		replica: {"formula.cnf", "proof.lrat", "job.json", "result.json"},
	}
	want := map[string][]byte{}
	var temps []string
	for id, names := range artifacts {
		for _, name := range names {
			path := filepath.Join(root, "jobs", id, name)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want[path] = b
			tmp := filepath.Join(root, "jobs", id, "."+name+".tmp-1234567")
			if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			temps = append(temps, tmp)
		}
	}

	if _, err := NewDiskStore(root); err != nil {
		t.Fatal(err)
	}
	for _, tmp := range temps {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("temp file %s survived reopen (err=%v)", tmp, err)
		}
	}
	for path, b := range want {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, b) {
			t.Errorf("%s changed by the sweep (err=%v)", path, err)
		}
	}
}

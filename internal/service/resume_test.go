package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/lrat"
	"repro/internal/obs"
	"repro/internal/proof"
)

// TestDaemonResumeDecision pins which journal records a recovered job may
// resume from. A job is admitted straight into a DiskStore with a prepared
// journal at its JournalPath; the daemon must resume only from a record a
// hinted run of the same job wrote, run every other job from scratch, and
// give the same JobResult as an uninterrupted run in all three cases.
func TestDaemonResumeDecision(t *testing.T) {
	const every = 20
	f, tr := chainProblem(200)

	// record returns the middle checkpoint payload of an in-process run with
	// the daemon's mode and engine, with or without hint recording.
	record := func(hinted bool) []byte {
		opt := core.Options{Checkpoint: core.CheckpointConfig{Every: every}}
		if hinted {
			opt.Hints = new(lrat.Recorder)
		}
		var payloads [][]byte
		opt.Checkpoint.Sink = func(p []byte) error {
			payloads = append(payloads, append([]byte(nil), p...))
			return nil
		}
		if res, err := core.Verify(f, tr, opt); err != nil || !res.OK {
			t.Fatalf("in-process run: err %v, res %+v", err, res)
		}
		if len(payloads) < 3 {
			t.Fatalf("%d checkpoint records, want at least 3", len(payloads))
		}
		return payloads[len(payloads)/2]
	}
	forged, err := core.DecodeCheckpoint(record(true))
	if err != nil {
		t.Fatal(err)
	}
	forged.NextIndex = tr.Len() + 5

	// run admits the job into a fresh DiskStore, writes payload (if any) as
	// its journal's only record, and lets a daemon verify it.
	run := func(payload []byte) (*JobResult, int64) {
		ds, err := NewDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		id, err := NewJobID()
		if err != nil {
			t.Fatal(err)
		}
		job := &Job{ID: id, Tenant: "default", Seq: 1, NumVars: f.NumVars,
			NumClauses: f.NumClauses(), ProofClauses: tr.Len()}
		if err := ds.Create(job, f, tr); err != nil {
			t.Fatal(err)
		}
		if payload != nil {
			writeJournal(t, ds.JournalPath(id), f, tr, every, payload)
		}
		reg := obs.New()
		d := newTestDaemon(t, Options{Store: ds, CheckpointEvery: every, Obs: reg})
		return waitDone(t, d, id), reg.Counter("service.jobs_resumed").Value()
	}

	base, resumed := run(nil)
	if resumed != 0 || base.Status != StatusVerified {
		t.Fatalf("uninterrupted run: %+v, jobs_resumed %d", base, resumed)
	}
	want, _ := json.Marshal(base)
	for _, tc := range []struct {
		name    string
		payload []byte
		resumed int64
	}{
		{"hinted-v2", record(true), 1},
		{"unhinted-v4", record(false), 0},
		{"next-index-out-of-range", forged.Encode(), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jr, resumed := run(tc.payload)
			if resumed != tc.resumed {
				t.Errorf("jobs_resumed = %d, want %d", resumed, tc.resumed)
			}
			if got, _ := json.Marshal(jr); !bytes.Equal(got, want) {
				t.Errorf("result diverged from an uninterrupted run:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// writeJournal writes a journal for the daemon's sequential run of f and tr
// holding payload as its one checkpoint record.
func writeJournal(t *testing.T, path string, f *cnf.Formula, tr *proof.Trace, every int, payload []byte) {
	t.Helper()
	err := journal.Write(path, journal.Meta{
		Mode:      uint8(core.ModeCheckMarked),
		Engine:    uint8(core.EngineWatched),
		Interval:  uint32(every),
		FormulaFP: journal.FingerprintFormula(f),
		ProofFP:   journal.FingerprintTrace(tr),
	}, payload, nil)
	if err != nil {
		t.Fatal(err)
	}
}

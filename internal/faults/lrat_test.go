package faults

import (
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lrat"
	"repro/internal/proof"
	"repro/internal/sched"
)

// recordedProof verifies PHP(n) with the hint recorder attached and
// returns the instance with its emission-ready LRAT proof.
func recordedProof(t *testing.T, n int) (*cnf.Formula, *proof.Trace, *lrat.Proof) {
	t.Helper()
	f, tr := goodInstance(t, n)
	var rec lrat.Recorder
	res, err := core.Verify(f, tr, core.Options{
		Mode:   core.ModeCheckMarked,
		Engine: core.EngineWatched,
		Hints:  &rec,
	})
	if err != nil || !res.OK {
		t.Fatalf("recording run failed: err=%v res=%+v", err, res)
	}
	p, err := rec.Proof()
	if err != nil {
		t.Fatal(err)
	}
	if cres, err := lrat.Check(f, p, lrat.Options{}); err != nil || !cres.OK {
		t.Fatalf("baseline hinted proof rejected: err=%v res=%+v", err, cres)
	}
	return f, tr, p
}

// hintVerdict is a hinted check's rejection contract: the first failing
// step and its reason, or (-1, "") for an accepted proof.
type hintVerdict struct {
	step   int
	reason string
}

// pinnedHintVerdicts records, per hint-corruption kind and injector seed
// 0..7, the verdict the hinted checker gives on PHP(5)'s recorded proof.
// Any change to replay order, rejection attribution or reason text shows
// here.
var pinnedHintVerdicts = map[HintKind][8]hintVerdict{
	WrongAntecedent: {
		{18, "hint 2 (clause [-14 1 3 5 16 18 20]) satisfied, not unit"},
		{81, "hint 2 (clause [-30 1 3 5 6 8 11 13 14]) satisfied, not unit"},
		{42, "hint 6 (clause [-18 1 5 10 15 26 30]) satisfied, not unit"},
		{16, "hint 2 has 5 unassigned literals, not unit"},
		{29, "hint 1 (clause [-10 1 2 5 11 12 14 16 17 18]) satisfied, not unit"},
		{146, "hint 4 (clause [-4 6 10 13 14 15 24 25 26 30]) satisfied, not unit"},
		{4, "hint 3 has 4 unassigned literals, not unit"},
		{86, "hint 0 has 3 unassigned literals, not unit"},
	},
	ReorderHints: {
		{85, "hint 2 has 2 unassigned literals, not unit"},
		{-1, ""},
		{-1, ""},
		{98, "hint 1 has 2 unassigned literals, not unit"},
		{8, "hint 1 has 2 unassigned literals, not unit"},
		{-1, ""},
		{-1, ""},
		{136, "hint 6 has 2 unassigned literals, not unit"},
	},
	DropHint: {
		{18, "hint 2 has 2 unassigned literals, not unit"},
		{81, "hint 3 has 2 unassigned literals, not unit"},
		{42, "final hint unit on 27, not conflicting"},
		{16, "final hint unit on -7, not conflicting"},
		{29, "hint 6 has 2 unassigned literals, not unit"},
		{146, "hint 8 has 2 unassigned literals, not unit"},
		{4, "final hint unit on -19, not conflicting"},
		{86, "hint 0 has 2 unassigned literals, not unit"},
	},
	DanglingHintID: {
		{18, "dangling hint id 244"},
		{81, "dangling hint id 244"},
		{42, "dangling hint id 244"},
		{16, "dangling hint id 244"},
		{29, "dangling hint id 244"},
		{146, "dangling hint id 244"},
		{4, "dangling hint id 244"},
		{86, "dangling hint id 244"},
	},
}

// TestLRATHintFaultMatrix attacks the hinted checker with syntactically
// well-formed proofs whose hint lists lie: wrong antecedents, reordered
// units, dropped hints, dangling IDs. The sequential and DAG-scheduled
// checks must give every mutant the same pinned verdict —
// OK, failing step and reason — and never panic.
func TestLRATHintFaultMatrix(t *testing.T) {
	f, _, p := recordedProof(t, 5)

	modes := []struct {
		name string
		opt  lrat.Options
	}{
		{"sequential", lrat.Options{}},
		{"dag", lrat.Options{Workers: 4, Strategy: sched.StrategyDAG}},
	}
	for _, kind := range HintKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			pins, ok := pinnedHintVerdicts[kind]
			if !ok {
				t.Fatalf("%v has no pinned verdicts", kind)
			}
			for seed := int64(0); seed < 8; seed++ {
				inj := New(seed)
				mp, ok := inj.ApplyHints(kind, p)
				if !ok {
					t.Fatalf("seed %d: %v inapplicable", seed, kind)
				}
				want := pins[seed]
				for _, m := range modes {
					res, err := lrat.Check(f, mp, m.opt)
					if err != nil {
						t.Fatalf("seed %d: %s check errored: %v", seed, m.name, err)
					}
					got := hintVerdict{res.FailedStep, res.Reason}
					if got != want || res.OK != (want.step < 0) {
						t.Errorf("seed %d: %s verdict ok=%v %+v, want %+v",
							seed, m.name, res.OK, got, want)
					}
				}
			}
		})
	}
}

// TestLRATSparseIDsMatchDense: the hinted checker resolves clause IDs
// through a dense table while a proof's addition IDs lie close together,
// as recorded ones do, and through a map when they are spread out. A
// recorded proof renumbered with gaps wide enough to force the map must get
// every verdict the original gets — OK, the failing step, the hints scanned
// and the reason, its IDs renamed — when valid and when its hints dangle,
// point forward, name a deleted clause or lie in the other ways the
// injector knows.
func TestLRATSparseIDsMatchDense(t *testing.T) {
	f, _, p := recordedProof(t, 5)
	nf := int64(f.NumClauses())
	const gap = 1 << 20 // far past the dense table's 4·additions + 1024
	rename := func(id int64) int64 {
		if id <= nf {
			return id
		}
		return nf + (id-nf)*gap
	}
	renameAll := func(ids []int64) []int64 {
		out := make([]int64, len(ids))
		for i, id := range ids {
			out[i] = rename(id)
		}
		return out
	}
	sparse := func(p *lrat.Proof) *lrat.Proof {
		out := &lrat.Proof{Steps: make([]lrat.Step, len(p.Steps))}
		for i, s := range p.Steps {
			out.Steps[i] = lrat.Step{ID: rename(s.ID), Del: s.Del, C: s.C,
				Hints: renameAll(s.Hints), Deleted: renameAll(s.Deleted)}
		}
		return out
	}
	idRef := regexp.MustCompile(`id (\d+)`)
	renameReason := func(reason string) string {
		return idRef.ReplaceAllStringFunc(reason, func(m string) string {
			id, _ := strconv.ParseInt(m[len("id "):], 10, 64)
			return "id " + strconv.FormatInt(rename(id), 10)
		})
	}

	proofs := map[string]*lrat.Proof{"valid": p}
	for _, kind := range HintKinds {
		for seed := int64(0); seed < 4; seed++ {
			if mp, ok := New(seed).ApplyHints(kind, p); ok {
				proofs[fmt.Sprintf("%v/%d", kind, seed)] = mp
			}
		}
	}
	// A hint naming a later addition (IDs resolve as their steps are
	// reached, so it dangles), and a hint whose clause a deletion just
	// before its step removed.
	k := len(p.Steps) / 2
	for p.Steps[k].Del || len(p.Steps[k].Hints) == 0 {
		k++
	}
	forward := cloneProof(p)
	forward.Steps[k].Hints[0] = p.Steps[len(p.Steps)-1].ID
	proofs["forward-reference"] = forward
	deleted := cloneProof(p)
	del := lrat.Step{ID: p.Steps[k-1].ID, Del: true, Deleted: []int64{p.Steps[k].Hints[0]}}
	deleted.Steps = slices.Insert(deleted.Steps, k, del)
	proofs["deleted-hint"] = deleted

	for name, dp := range proofs {
		for _, opt := range []lrat.Options{{}, {Workers: 4, Strategy: sched.StrategyDAG}} {
			want, err := lrat.Check(f, dp, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := lrat.Check(f, sparse(dp), opt)
			if err != nil {
				t.Fatal(err)
			}
			// How far DAG workers get past a failure varies from run to run,
			// so only the sequential check's hint count is exact.
			sameHints := got.HintsScanned == want.HintsScanned || opt.Workers > 0
			if got.OK != want.OK || got.FailedStep != want.FailedStep || !sameHints ||
				got.Reason != renameReason(want.Reason) {
				t.Errorf("%s (workers %d): sparse ok=%v step %d hints %d %q; dense ok=%v step %d hints %d %q",
					name, opt.Workers, got.OK, got.FailedStep, got.HintsScanned, got.Reason,
					want.OK, want.FailedStep, want.HintsScanned, want.Reason)
			}
		}
	}
	for name, wantReason := range map[string]string{
		"valid":              "",
		"forward-reference":  "dangling hint id",
		"deleted-hint":       "already deleted",
		"dangling-hint-id/0": "dangling hint id",
	} {
		res, _ := lrat.Check(f, proofs[name], lrat.Options{})
		if wantReason == "" && !res.OK || !strings.Contains(res.Reason, wantReason) {
			t.Errorf("%s: dense check gives ok=%v %q, want %q", name, res.OK, res.Reason, wantReason)
		}
	}
}

// TestLRATDifferentialMatrix is the cross-checker contract: corrupt the
// underlying instance with every structural fault kind and require the
// hinted pipeline to be no more permissive than the RUP checker it derives
// from. When RUP accepts a mutant, the hints recorded during that run must
// pass the hinted check; when RUP rejects, whatever partial recording
// exists must be rejected too — a hinted proof must never outlive the RUP
// verdict it was recorded from.
func TestLRATDifferentialMatrix(t *testing.T) {
	f, tr, clean := recordedProof(t, 5)

	for _, kind := range Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				inj := New(seed)
				mf, mt, ok := inj.Apply(kind, f, tr)
				if !ok {
					t.Fatalf("seed %d: %v inapplicable", seed, kind)
				}
				var rec lrat.Recorder
				res, err := core.Verify(mf, mt, core.Options{
					Mode:   core.ModeCheckMarked,
					Engine: core.EngineWatched,
					Hints:  &rec,
				})
				rupOK := err == nil && res != nil && res.OK
				mp, perr := rec.Proof()
				if perr != nil {
					t.Fatalf("seed %d: recorder state corrupt: %v", seed, perr)
				}
				cres, cerr := lrat.Check(mf, mp, lrat.Options{})
				if cerr != nil {
					t.Fatalf("seed %d: hinted check errored: %v", seed, cerr)
				}
				if rupOK && !cres.OK {
					t.Errorf("seed %d: RUP accepted but hinted check rejected at %d: %s",
						seed, cres.FailedStep, cres.Reason)
				}
				if !rupOK && cres.OK {
					t.Errorf("seed %d: RUP rejected but the partial hinted proof passed", seed)
				}
			}
		})
	}

	// The stored-proof threat: a hinted proof recorded against yesterday's
	// formula must not verify against a formula whose clauses shifted.
	// Dropping any formula clause renumbers every formula ID the hints
	// reference.
	t.Run("stale-proof-vs-mutated-formula", func(t *testing.T) {
		for seed := int64(0); seed < 5; seed++ {
			mf, _, ok := New(seed).Apply(DropFormulaClause, f, tr)
			if !ok {
				t.Fatalf("seed %d: drop-formula-clause inapplicable", seed)
			}
			cres, err := lrat.Check(mf, clean, lrat.Options{})
			if err != nil {
				t.Fatalf("seed %d: check errored: %v", seed, err)
			}
			if cres.OK {
				t.Errorf("seed %d: stale hinted proof accepted against a mutated (satisfiable) formula", seed)
			}
		}
	})
}

// TestApplyHintsDeterminism pins reproduce-from-seed for the hint kinds.
func TestApplyHintsDeterminism(t *testing.T) {
	_, _, p := recordedProof(t, 4)
	for _, kind := range HintKinds {
		a, ok1 := New(7).ApplyHints(kind, p)
		b, ok2 := New(7).ApplyHints(kind, p)
		if ok1 != ok2 {
			t.Fatalf("%v: applicability diverged", kind)
		}
		if !ok1 {
			continue
		}
		var x, y bytes.Buffer
		if err := lrat.Write(&x, a); err != nil {
			t.Fatal(err)
		}
		if err := lrat.Write(&y, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x.Bytes(), y.Bytes()) {
			t.Fatalf("%v: same seed produced different mutations", kind)
		}
	}
}

// TestApplyHintsDoesNotAliasInput guards the clone discipline.
func TestApplyHintsDoesNotAliasInput(t *testing.T) {
	_, _, p := recordedProof(t, 4)
	var before bytes.Buffer
	if err := lrat.Write(&before, p); err != nil {
		t.Fatal(err)
	}
	inj := New(3)
	for _, kind := range HintKinds {
		inj.ApplyHints(kind, p)
	}
	var after bytes.Buffer
	if err := lrat.Write(&after, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("ApplyHints mutated its input")
	}
}

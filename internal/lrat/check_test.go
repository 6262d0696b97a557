package lrat

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sched"
)

// chainFormula is (x1)(¬x1 x2)(¬x2): a three-clause unit chain whose LRAT
// refutation "4 0 1 2 3 0" exercises unit replay and the final conflict.
func chainFormula() *cnf.Formula {
	f := cnf.NewFormula(0)
	f.Add(1).Add(-1, 2).Add(-2)
	return f
}

func parse(t *testing.T, in string) *Proof {
	t.Helper()
	p, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCheckAccepts(t *testing.T) {
	cases := []struct {
		name, proof string
	}{
		{"direct refutation", "4 0 1 2 3 0"},
		{"two-step", "4 2 0 1 2 0\n5 0 4 3 0"},
		{"with deletion", "4 2 0 1 2 0\n5 d 2 0\n5 0 4 3 0"},
		{"tautological step", "4 1 -1 0 0\n5 0 1 2 3 0"},
	}
	for _, tc := range cases {
		res, err := Check(chainFormula(), parse(t, tc.proof), Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.OK {
			t.Errorf("%s: rejected at step %d: %s", tc.name, res.FailedStep, res.Reason)
		}
	}
}

func TestCheckRejects(t *testing.T) {
	cases := []struct {
		name, proof, wantReason string
		wantStep                int
	}{
		{"reordered units", "4 0 2 1 3 0", "not unit", 0},
		{"dropped hint", "4 0 1 3 0", "final hint unit", 0},
		{"no hints", "4 0 0", "no hints", 0},
		{"dangling hint", "4 0 1 2 9 0", "dangling hint id 9", 0},
		{"rat hint", "4 0 -1 2 3 0", "RAT hint", 0},
		{"non-increasing id", "3 2 0 1 2 0", "not above previous", 0},
		{"deleted antecedent", "4 d 3 0\n5 0 1 2 3 0", "already deleted", 1},
		{"delete unknown", "4 d 9 0", "unknown id 9", 0},
		{"double delete", "4 d 3 3 0", "double deletion", 0},
		// A hint naming a later step's id is unresolvable at resolution time,
		// so it reports as dangling rather than "not yet derived".
		{"hint from the future", "4 0 1 2 5 0\n5 2 0 1 2 0", "dangling hint id 5", 0},
		// Deriving (x1 x2) assigns x1 false, satisfying (¬x1 x2)'s first literal.
		{"satisfied hint", "4 1 2 0 2 0", "satisfied", 0},
		{"early conflict", "4 0 1 2 3 2 0", "conflicts before the final hint", 0},
		{"no refutation", "4 2 0 1 2 0", "no empty clause derived", -1},
	}
	for _, tc := range cases {
		res, err := Check(chainFormula(), parse(t, tc.proof), Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.OK {
			t.Errorf("%s: accepted, want rejection", tc.name)
			continue
		}
		if res.FailedStep != tc.wantStep {
			t.Errorf("%s: failed step %d, want %d", tc.name, res.FailedStep, tc.wantStep)
		}
		if !strings.Contains(res.Reason, tc.wantReason) {
			t.Errorf("%s: reason %q, want substring %q", tc.name, res.Reason, tc.wantReason)
		}
	}
}

func TestCheckCounters(t *testing.T) {
	res, err := Check(chainFormula(), parse(t, "4 2 0 1 2 0\n5 d 2 0\n6 0 4 3 0"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Additions != 2 || res.Deletions != 1 {
		t.Errorf("additions %d deletions %d", res.Additions, res.Deletions)
	}
	if res.HintsScanned != 4 {
		t.Errorf("hints scanned %d, want 4", res.HintsScanned)
	}
	if !res.Refuted {
		t.Error("refuted not set")
	}
}

// longChain builds (x1)(¬x1 x2)...(¬x_{n-1} x_n)(¬x_n) and an LRAT proof
// deriving each unit (x_i) in turn before the empty clause, for exercising
// the parallel mode on a proof with many steps.
func longChain(n int) (*cnf.Formula, *Proof) {
	f := cnf.NewFormula(0)
	f.Add(1)
	for i := 1; i < n; i++ {
		f.Add(-i, i+1)
	}
	f.Add(-n)
	nf := int64(n + 1)
	p := &Proof{}
	// Derive (x_{i+1}) with hints [previous unit, implication i].
	for i := 1; i < n; i++ {
		p.Steps = append(p.Steps, Step{
			ID:    nf + int64(i),
			C:     mkClause(i + 1),
			Hints: []int64{nf + int64(i) - 1, int64(i) + 1},
		})
	}
	// nf+0 does not exist: the first derived unit leans on formula clause 1.
	p.Steps[0].Hints[0] = 1
	// Empty clause: the last derived unit (x_n) plus the formula's (¬x_n),
	// which is clause index n, LRAT id nf.
	p.Steps = append(p.Steps, Step{
		ID:    nf + int64(n),
		Hints: []int64{nf + int64(n) - 1, nf},
	})
	return f, p
}

func TestCheckParallelMatchesSequential(t *testing.T) {
	f, p := longChain(500)
	seq, err := Check(f, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.OK {
		t.Fatalf("sequential rejected: step %d: %s", seq.FailedStep, seq.Reason)
	}
	par, err := Check(f, p, Options{Workers: 4, Strategy: sched.StrategyDAG})
	if err != nil {
		t.Fatal(err)
	}
	if !par.OK || par.HintsScanned != seq.HintsScanned {
		t.Fatalf("parallel diverged: %+v vs %+v", par, seq)
	}
}

func TestCheckParallelFirstFailureWins(t *testing.T) {
	f, p := longChain(500)
	// Corrupt two steps; the earlier one must be reported regardless of
	// which worker reaches its step first.
	p.Steps[100].Hints = []int64{1}
	p.Steps[400].Hints = []int64{1}
	for _, workers := range []int{1, 4} {
		res, err := Check(f, p, Options{Workers: workers, Strategy: sched.StrategyDAG})
		if err != nil {
			t.Fatal(err)
		}
		if res.OK || res.FailedStep != 100 {
			t.Fatalf("workers=%d: failed step %d, want 100", workers, res.FailedStep)
		}
	}
}

func TestCheckContextCancelled(t *testing.T) {
	f, p := longChain(5000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Check(f, p, Options{Ctx: ctx})
	if err != context.Canceled {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if !res.Incomplete {
		t.Fatal("Incomplete not set")
	}
}

func TestCheckEmptyFormulaClauseRejectsNothing(t *testing.T) {
	// A formula containing the empty clause: any addition hinting at it
	// conflicts immediately.
	f := cnf.NewFormula(0)
	f.AddClause(cnf.Clause{})
	res, err := Check(f, parse(t, "2 0 1 0"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("rejected: %s", res.Reason)
	}
}

// The replay arrays size off the clauses, not the formula header: a header
// that undercounts must not break the check, and one that overcounts must
// not make it allocate for variables no clause mentions.
func TestCheckGrowsVarsPastHeader(t *testing.T) {
	for _, tc := range []struct {
		name    string
		numVars int
	}{
		{"undercount", 0},
		{"overcount", 100_000_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &cnf.Formula{NumVars: tc.numVars}
			f.Clauses = []cnf.Clause{mkClause(1), mkClause(-1, 2), mkClause(-2)}
			p := parse(t, "4 0 1 2 3 0")
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Check(f, p, Options{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK {
				t.Fatalf("rejected: %s", res.Reason)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
				t.Fatalf("check allocated %d bytes for a 2-variable formula", d)
			}
		})
	}
}

func BenchmarkCheckChain(b *testing.B) {
	f, p := longChain(2000)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Check(f, p, Options{Workers: workers, Strategy: sched.StrategyDAG})
				if err != nil || !res.OK {
					b.Fatal(res.Reason, err)
				}
			}
		})
	}
}

// TestIDTable: formula IDs resolve to their slots, addition IDs to what was
// put, everything else to nothing; the table stays dense up to the largest
// addition ID 4·additions + 1024 past the formula and is a map beyond.
func TestIDTable(t *testing.T) {
	const nf, adds = 10, 3
	for _, tc := range []struct {
		maxID int64
		dense bool
	}{
		{nf + 4*adds + 1024, true},
		{nf + 4*adds + 1025, false},
	} {
		ids := newIDTable(nf, tc.maxID, adds)
		if dense := ids.more == nil; dense != tc.dense || len(ids.slots) < nf {
			t.Fatalf("maxID %d: dense %v with %d slots, want dense %v", tc.maxID, dense, len(ids.slots), tc.dense)
		}
		added := map[int64]int32{nf + 1: 10, nf + 7: 11, tc.maxID: 12}
		for id, slot := range added {
			ids.put(id, slot)
		}
		for id := int64(-2); id <= tc.maxID+2; id++ {
			slot, ok := ids.get(id)
			want, wantOK := added[id]
			if id >= 1 && id <= nf {
				want, wantOK = int32(id-1), true
			}
			if ok != wantOK || ok && slot != want {
				t.Fatalf("maxID %d: get(%d) = %d, %v; want %d, %v", tc.maxID, id, slot, ok, want, wantOK)
			}
		}
		for _, id := range []int64{math.MinInt64, math.MaxInt64} {
			if _, ok := ids.get(id); ok {
				t.Fatalf("maxID %d: get(%d) found a slot", tc.maxID, id)
			}
		}
	}
}

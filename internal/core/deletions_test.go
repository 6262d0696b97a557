package core

import (
	"errors"
	"testing"

	"repro/internal/proof"
)

// deletionTrace proves chainFormula's UNSAT as a DRUP proof: (x1) from F0
// and F1, which are then deleted, (-x1) from F2 and F3, then the empty
// clause. The check of (x1) needs F0 and F1 back, so it passes only if the
// backward loop undoes their deletion before popping (x1).
func deletionTrace() *proof.Trace {
	tr := proof.New()
	tr.Append(cl(1), 0)
	tr.Append(cl(-1), 0)
	tr.Append(nil, 0)
	tr.Deletions = [][]int{nil, {0, 1}, nil}
	return tr
}

func TestVerifyUndoesDeletionsBackward(t *testing.T) {
	for _, mode := range []Mode{ModeCheckMarked, ModeCheckAll} {
		f, _ := chainFormula()
		res, err := Verify(f, deletionTrace(), Options{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !res.OK {
			t.Fatalf("%v: rejected at clause %d", mode, res.FailedIndex)
		}
		if res.Tested != 3 || len(res.Core) != 4 {
			t.Errorf("%v: tested %d, core %v; want 3 and all 4 clauses", mode, res.Tested, res.Core)
		}
	}
}

// TestVerifyHonoursDeletions moves F0's deletion before (x1): its check
// then runs without F0, so (x1) is no longer RUP.
func TestVerifyHonoursDeletions(t *testing.T) {
	f, _ := chainFormula()
	tr := deletionTrace()
	tr.Deletions = [][]int{{0}, {1}, nil}
	res, err := Verify(f, tr, Options{Mode: ModeCheckAll})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.FailedIndex != 0 {
		t.Fatalf("OK=%v FailedIndex=%d, want a rejection of clause 0", res.OK, res.FailedIndex)
	}
}

func TestVerifyRejectsBadDeletionSchedule(t *testing.T) {
	f, _ := chainFormula()
	cases := []struct {
		name string
		dels [][]int
		opt  Options
	}{
		{"counting engine", [][]int{nil, {0}, nil}, Options{Engine: EngineCounting}},
		{"short schedule", [][]int{nil, {0}}, Options{}},
		{"slot not yet added", [][]int{nil, {5}, nil}, Options{}},
		{"negative slot", [][]int{{-1}, nil, nil}, Options{}},
	}
	for _, tc := range cases {
		tr := deletionTrace()
		tr.Deletions = tc.dels
		if _, err := Verify(f, tr, tc.opt); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: err = %v, want ErrBadTrace", tc.name, err)
		}
	}
	if _, err := VerifyParallelOpts(f, deletionTrace(), Options{}, 2); !errors.Is(err, ErrBadTrace) {
		t.Errorf("parallel: err = %v, want ErrBadTrace", err)
	}
}

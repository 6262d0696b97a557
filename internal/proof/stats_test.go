package proof

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/cnf"
)

// traceWithLengths builds a trace whose clause lengths cover many distinct
// histogram buckets.
func traceWithLengths(t *testing.T, lengths ...int) *Trace {
	t.Helper()
	tr := New()
	for _, n := range lengths {
		c := make(cnf.Clause, n)
		for i := range c {
			c[i] = cnf.PosLit(cnf.Var(i))
		}
		tr.Append(c, 0)
	}
	return tr
}

// TestLenBucketsSorted: the histogram slice is ascending by upper bound and
// accounts for every clause exactly once.
func TestLenBucketsSorted(t *testing.T) {
	tr := traceWithLengths(t, 1, 2, 3, 4, 5, 9, 17, 33, 2, 6, 1)
	st := tr.ComputeStats(0)
	buckets := st.LenBuckets()
	if !sort.SliceIsSorted(buckets, func(i, j int) bool { return buckets[i].Le < buckets[j].Le }) {
		t.Fatalf("buckets not sorted: %+v", buckets)
	}
	total := 0
	for _, b := range buckets {
		total += b.Count
	}
	if total != tr.Len() {
		t.Errorf("bucket counts sum to %d, want %d", total, tr.Len())
	}
	if len(buckets) != len(st.LenHistogram) {
		t.Errorf("%d buckets for %d histogram keys", len(buckets), len(st.LenHistogram))
	}
}

// TestStatsStringDeterministic: the rendered report must not depend on map
// iteration order.
func TestStatsStringDeterministic(t *testing.T) {
	tr := traceWithLengths(t, 1, 2, 3, 5, 9, 17, 33, 65, 129, 4, 8, 16)
	first := tr.ComputeStats(0).String()
	for i := 0; i < 20; i++ {
		if got := tr.ComputeStats(0).String(); got != first {
			t.Fatalf("iteration %d rendered differently:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestComputeStats(t *testing.T) {
	tr := New()
	tr.Append(cl(1), 1)
	tr.Append(cl(1, 2), 2)
	tr.Append(cl(1, 2, 3, 4, 5), 100)
	st := tr.ComputeStats(32)
	if st.Clauses != 3 || st.Literals != 8 || st.Resolutions != 103 {
		t.Errorf("stats = %+v", st)
	}
	if st.MinLen != 1 || st.MaxLen != 5 || st.MedianLen != 2 {
		t.Errorf("lens = %+v", st)
	}
	if st.LocalClauses != 2 || st.GlobalClauses != 1 {
		t.Errorf("local/global = %d/%d", st.LocalClauses, st.GlobalClauses)
	}
	if st.LenHistogram[1] != 1 || st.LenHistogram[2] != 1 || st.LenHistogram[8] != 1 {
		t.Errorf("histogram = %v", st.LenHistogram)
	}
	if !strings.Contains(st.String(), "local/global") {
		t.Error("String() missing report sections")
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	st := New().ComputeStats(0)
	if st.Clauses != 0 || st.MinLen != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestComputeStatsDefaultThreshold(t *testing.T) {
	tr := New()
	tr.Append(cl(1, 2), DefaultGlobalThreshold+1)
	st := tr.ComputeStats(0)
	if st.GlobalThreshold != DefaultGlobalThreshold || st.GlobalClauses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLenBucket(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 8: 8, 9: 16, 17: 32}
	for n, want := range cases {
		if got := lenBucket(n); got != want {
			t.Errorf("lenBucket(%d) = %d, want %d", n, got, want)
		}
	}
}

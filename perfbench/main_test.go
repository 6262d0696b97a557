package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks the
// benchmark's output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json lists no workloads or metrics: %+v", spec)
	}
	return spec
}

// shortConfig runs a workload on tiny inputs for half a second.
func shortConfig(t *testing.T, workload string, traced bool) config {
	return config{
		workload: workload,
		seed:     7,
		window:   500 * time.Millisecond,
		trace:    traced,
		workDir:  t.TempDir(),
		short:    true,
	}
}

// TestEveryMetricReported runs every workload of BENCHMARK.json untraced and
// traced and checks that each run reports exactly the metrics listed there,
// with their units, and reaches only the expected verdicts.
func TestEveryMetricReported(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			o, err := run(shortConfig(t, w.Name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !o.correct || o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d wrong=%v",
					w.Name, traced, o.correct, o.attempted, o.failed, o.wrong)
			}
			if len(o.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json lists %d", w.Name, traced, len(o.metrics), len(want))
			}
			for _, m := range want {
				got, ok := o.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestWrongExpectedVerdictFails inverts the known answer of one input and
// checks that every workload then fails its run.
func TestWrongExpectedVerdictFails(t *testing.T) {
	for _, w := range []string{"cli-rup", "lrat-recheck", "dpvd-mixed"} {
		for _, flip := range []string{"php_5", "php_5-drop"} {
			cfg := shortConfig(t, w, false)
			cfg.flip = flip
			o, err := run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			if o.correct {
				t.Errorf("%s: inverting the expected verdict of %s did not fail the run", w, flip)
			}
		}
	}
}

// TestSameSeedSameInputs checks that inputs are a function of the seed.
func TestSameSeedSameInputs(t *testing.T) {
	names := []string{"php_5", "barrel_b8s2", "php_5-drop"}
	_, a, err := makeInputs(names, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := makeInputs(names, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, c, err := makeInputs(names, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("seed 3 generated different inputs twice")
	}
	if string(a) == string(c) {
		t.Error("seeds 3 and 4 generated the same inputs")
	}
}

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 4}, {6, 9}}, 0, 10, 5},
		{[][2]int64{{2, 6}, {4, 8}}, 0, 10, 6},
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5},
		{[][2]int64{{1, 9}, {2, 3}}, 0, 10, 8},
	} {
		if got := covered(tc.iv, tc.lo, tc.hi); got != tc.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", tc.iv, tc.lo, tc.hi, got, tc.want)
		}
	}
}

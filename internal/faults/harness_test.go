package faults

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/proof"
	"repro/internal/solver"
)

// The robustness contract, exercised as a matrix: every corruption kind ×
// every checker configuration (mode × engine, sequential and parallel).
// For each cell the verifier must return a verdict or a typed error within
// the deadline — never panic, never hang — and must never accept a proof
// for a satisfiable formula. gen.PHP is minimally unsatisfiable, so
// DropFormulaClause always yields a SAT formula and "reject" becomes a hard
// requirement there; for trace-only corruptions the formula stays UNSAT and
// an accept is sound (the mutation happened to preserve proof validity), so
// the harness instead checks that all exhaustive checkers agree.

// config is one checker configuration in the matrix.
type config struct {
	name     string
	checkAll bool // exhaustive configurations must agree on the verdict
	run      func(*cnf.Formula, *proof.Trace, context.Context) (*core.Result, error)
}

func configs() []config {
	var out []config
	for _, eng := range []core.EngineKind{core.EngineWatched, core.EngineCounting} {
		eng := eng
		for _, mode := range []core.Mode{core.ModeCheckAll, core.ModeCheckMarked} {
			mode := mode
			out = append(out, config{
				name:     fmt.Sprintf("seq/%v/%v", mode, eng),
				checkAll: mode == core.ModeCheckAll,
				run: func(f *cnf.Formula, t *proof.Trace, ctx context.Context) (*core.Result, error) {
					return core.Verify(f, t, core.Options{Mode: mode, Engine: eng, Ctx: ctx})
				},
			})
		}
		out = append(out, config{
			name:     fmt.Sprintf("par/%v", eng),
			checkAll: true,
			run: func(f *cnf.Formula, t *proof.Trace, ctx context.Context) (*core.Result, error) {
				return core.VerifyParallelOpts(f, t, core.Options{Engine: eng, Ctx: ctx}, 4)
			},
		})
	}
	return out
}

// goodInstance solves PHP(n) and returns the formula with its verified
// proof trace.
func goodInstance(t *testing.T, n int) (*cnf.Formula, *proof.Trace) {
	t.Helper()
	inst := gen.PHP(n)
	st, tr, _, _, err := solver.Solve(inst.F, solver.Options{})
	if err != nil || st != solver.Unsat {
		t.Fatalf("solving %s: status=%v err=%v", inst.Name, st, err)
	}
	res, err := core.Verify(inst.F, tr, core.Options{})
	if err != nil || !res.OK {
		t.Fatalf("baseline proof invalid: err=%v res=%+v", err, res)
	}
	return inst.F, tr
}

// formulaIsUnsat re-solves a (possibly mutated) formula independently.
func formulaIsUnsat(t *testing.T, f *cnf.Formula) bool {
	t.Helper()
	st, _, _, _, err := solver.Solve(f.Clone(), solver.Options{})
	if err != nil || st == solver.Unknown {
		t.Fatalf("re-solving mutated formula: status=%v err=%v", st, err)
	}
	return st == solver.Unsat
}

func TestFaultMatrix(t *testing.T) {
	f, tr := goodInstance(t, 5)
	cfgs := configs()

	// rejectionSeen tracks, per kind, whether at least one (seed, config)
	// cell rejected — a harness that never rejects anything would be
	// asserting nothing.
	rejectionSeen := make(map[Kind]bool)

	for _, kind := range Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				inj := New(seed)
				inj.Obs = obs.New()
				mf, mt, ok := inj.Apply(kind, f, tr)
				if !ok {
					t.Fatalf("seed %d: %v inapplicable to PHP(5) instance", seed, kind)
				}
				if got := inj.Obs.Counter("faults.injected").Value(); got != 1 {
					t.Fatalf("seed %d: faults.injected = %d", seed, got)
				}
				sat := kind == DropFormulaClause // PHP is minimally UNSAT
				if sat && formulaIsUnsat(t, mf) {
					t.Fatalf("seed %d: dropping a PHP clause did not make it SAT", seed)
				}

				accepts := make(map[string]bool, len(cfgs))
				for _, cfg := range cfgs {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					res, err := cfg.run(mf, mt, ctx)
					cancel()
					if errors.Is(err, core.ErrDeadline) || errors.Is(err, core.ErrCancelled) {
						t.Fatalf("seed %d %s: verification hit the 5s deadline: %v", seed, cfg.name, err)
					}
					accepted := err == nil && res != nil && res.OK
					accepts[cfg.name] = accepted
					if !accepted {
						rejectionSeen[kind] = true
					}
					// The soundness invariant: accept ⇒ the formula the
					// checker saw really is UNSAT.
					if accepted && sat {
						t.Errorf("seed %d %s: ACCEPTED a proof for a satisfiable formula", seed, cfg.name)
					}
				}

				// All exhaustive checkers saw the same formula, trace, and
				// semantics; their verdicts must agree.
				var first string
				for _, cfg := range cfgs {
					if !cfg.checkAll {
						continue
					}
					if first == "" {
						first = cfg.name
						continue
					}
					if accepts[cfg.name] != accepts[first] {
						t.Errorf("seed %d: verdict split: %s=%v vs %s=%v",
							seed, first, accepts[first], cfg.name, accepts[cfg.name])
					}
				}
				// Check-marked verifies a subset of what check-all does, so
				// exhaustive acceptance implies marked acceptance.
				for _, cfg := range cfgs {
					if cfg.checkAll || !accepts[first] {
						continue
					}
					if !accepts[cfg.name] {
						t.Errorf("seed %d: check-all accepted but %s rejected", seed, cfg.name)
					}
				}
			}
		})
	}

	// DupClause and SwapClauses can legitimately preserve validity; every
	// other kind must have produced at least one rejection across the five
	// seeds, or the harness is exercising nothing.
	for _, kind := range Kinds {
		if kind == DupClause || kind == SwapClauses {
			continue
		}
		if !rejectionSeen[kind] {
			t.Errorf("%v: no (seed, config) cell rejected — mutation is not biting", kind)
		}
	}
}

// TestFaultMatrixSerialized runs the byte-corruption arm: serialize the
// good trace as text, corrupt one byte, and require the parser to
// either reject with a typed error or produce a trace the verifier handles
// under the same soundness contract.
func TestFaultMatrixSerialized(t *testing.T) {
	f, tr := goodInstance(t, 5)
	cfgs := configs()

	type codec struct {
		name  string
		write func(*bytes.Buffer) error
		read  func([]byte) (*proof.Trace, error)
	}
	codecs := []codec{
		{
			name:  "text",
			write: func(b *bytes.Buffer) error { return proof.Write(b, tr) },
			read:  func(d []byte) (*proof.Trace, error) { return proof.Read(bytes.NewReader(d)) },
		},
	}

	for _, cd := range codecs {
		cd := cd
		t.Run(cd.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := cd.write(&buf); err != nil {
				t.Fatal(err)
			}
			clean := buf.Bytes()
			parseErrors, verdicts := 0, 0
			for seed := int64(0); seed < 20; seed++ {
				inj := New(1000 + seed)
				data, ok := inj.CorruptBytes(clean)
				if !ok {
					t.Fatal("CorruptBytes on non-empty input returned ok=false")
				}
				mt, err := cd.read(data)
				if err != nil {
					// Typed rejection is the expected common case.
					if !errors.Is(err, cnf.ErrMalformed) && !errors.Is(err, cnf.ErrLimit) {
						t.Fatalf("seed %d: parse error is untyped: %v", seed, err)
					}
					parseErrors++
					continue
				}
				// The corruption parsed; the verifier must still uphold the
				// contract. PHP(5) itself is untouched (UNSAT), so any
				// verdict is sound — we require only verdict agreement and
				// no panic/hang.
				verdicts++
				accepts := make(map[string]bool, len(cfgs))
				for _, cfg := range cfgs {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					res, err := cfg.run(f, mt, ctx)
					cancel()
					if errors.Is(err, core.ErrDeadline) {
						t.Fatalf("seed %d %s: hit the 5s deadline", seed, cfg.name)
					}
					accepts[cfg.name] = err == nil && res != nil && res.OK
				}
				var first string
				for _, cfg := range cfgs {
					if !cfg.checkAll {
						continue
					}
					if first == "" {
						first = cfg.name
						continue
					}
					if accepts[cfg.name] != accepts[first] {
						t.Errorf("seed %d: verdict split: %s=%v vs %s=%v",
							seed, first, accepts[first], cfg.name, accepts[cfg.name])
					}
				}
			}
			if parseErrors == 0 {
				t.Error("no corrupted serialization was rejected by the parser")
			}
			t.Logf("%s: %d parse rejections, %d parsed-and-verified", cd.name, parseErrors, verdicts)
		})
	}
}

// TestInjectorDeterminism pins the reproduce-from-seed property the whole
// harness rests on.
func TestInjectorDeterminism(t *testing.T) {
	f, tr := goodInstance(t, 4)
	for _, kind := range Kinds {
		a1, b1, ok1 := New(7).Apply(kind, f, tr)
		a2, b2, ok2 := New(7).Apply(kind, f, tr)
		if ok1 != ok2 {
			t.Fatalf("%v: applicability diverged", kind)
		}
		if !ok1 {
			continue
		}
		var x, y bytes.Buffer
		if err := proof.Write(&x, b1); err != nil {
			t.Fatal(err)
		}
		if err := proof.Write(&y, b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x.Bytes(), y.Bytes()) || a1.NumClauses() != a2.NumClauses() {
			t.Fatalf("%v: same seed produced different mutations", kind)
		}
	}
}

// TestMutationsDoNotAliasInputs guards the clone discipline: applying a
// fault must leave the pristine instance bit-identical.
func TestMutationsDoNotAliasInputs(t *testing.T) {
	f, tr := goodInstance(t, 4)
	var before bytes.Buffer
	if err := proof.Write(&before, tr); err != nil {
		t.Fatal(err)
	}
	nc := f.NumClauses()
	inj := New(3)
	for _, kind := range Kinds {
		if _, _, ok := inj.Apply(kind, f, tr); !ok {
			t.Fatalf("%v inapplicable", kind)
		}
	}
	var after bytes.Buffer
	if err := proof.Write(&after, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) || f.NumClauses() != nc {
		t.Fatal("Apply mutated its inputs")
	}
}

package bcp

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cnf"
)

// errAbort is what the test's stop hooks return.
var errAbort = errors.New("abort")

// resetOps drives a random history through p, the same for any
// engine given the same seed: Refutes (each followed by WalkConflict and
// ConflictHints on a conflict), Deactivate, Suspend, Reactivate and MarkCore
// (watched engine only), and Refutes aborted by a stop hook. It returns a
// transcript of every observable result.
func resetOps(p Propagator, nVars, nOps int, rng *rand.Rand) []string {
	var out []string
	n := p.NumClauses()
	w, _ := p.(*Engine)
	for q := 0; q < nOps; q++ {
		id := ID(rng.Intn(n))
		switch k := rng.Intn(10); {
		case k == 0:
			p.Deactivate(id)
		case k == 1 && w != nil:
			w.Suspend(id)
		case k == 2:
			out = append(out, fmt.Sprint("reactivate ", id, p.Reactivate(id)))
		case k == 3 && w != nil:
			w.MarkCore(id)
		case k == 4:
			// Abort after a few polls, mid-propagation or at once.
			polls := rng.Intn(3)
			p.SetStop(func() error {
				if polls--; polls < 0 {
					return errAbort
				}
				return nil
			})
			c, sc := p.Refute(randLits(rng, nVars, 0, 2))
			out = append(out, fmt.Sprint("aborted ", c, sc, p.StopErr()))
			p.SetStop(nil)
		default:
			target := randLits(rng, nVars, 0, 3)
			c, sc := p.Refute(target)
			line := fmt.Sprint("refute ", target, c, sc)
			if c != NoConflict {
				var walked []ID
				p.WalkConflict(c, func(id ID) { walked = append(walked, id) })
				line += fmt.Sprint(" walk ", walked, " hints ", p.ConflictHints(c, target, nil))
			}
			out = append(out, line)
		}
	}
	return append(out, fmt.Sprintf("stats %+v", p.Stats()))
}

func randLits(rng *rand.Rand, nVars, minLen, maxLen int) cnf.Clause {
	c := make(cnf.Clause, minLen+rng.Intn(maxLen-minLen+1))
	for i := range c {
		c[i] = cnf.NewLit(cnf.Var(rng.Intn(nVars)), rng.Intn(2) == 0)
	}
	return c
}

// resetClauses is a random database with units, the odd empty clause,
// tautologies and duplicate literals, long enough clauses that propagation
// moves watches around.
func resetClauses(rng *rand.Rand, nVars int) []cnf.Clause {
	cs := make([]cnf.Clause, 20+rng.Intn(40))
	for i := range cs {
		if rng.Intn(40) == 0 {
			cs[i] = cnf.Clause{}
		} else {
			cs[i] = randLits(rng, nVars, 1, 6)
		}
	}
	return cs
}

// TestResetMatchesFreshEngine: after a random history, an engine Reset in
// place holds exactly what a new engine holds, and still does once both are
// given the Adds of a prefix of the clauses; from there both answer a
// second random history identically. The arena comparison fails if Reset
// leaves any old clause behind, since propagation permutes their literals.
func TestResetMatchesFreshEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 200; round++ {
		nVars := 4 + rng.Intn(12)
		clauses := resetClauses(rng, nVars)
		keep := rng.Intn(len(clauses) + 1)
		seed := rng.Int63()
		for name, mk := range map[string]func() Propagator{
			"watched":  func() Propagator { return NewEngine(nVars) },
			"counting": func() Propagator { return NewCounting(nVars) },
		} {
			used, fresh := mk(), mk()
			for _, c := range clauses {
				used.Add(c)
			}
			resetOps(used, nVars, 60, rand.New(rand.NewSource(seed)))
			used.Reset()
			if err := sameEngineState(used, mk()); err != nil {
				t.Fatalf("round %d, %s engine, just reset: %v", round, name, err)
			}
			for _, c := range clauses[:keep] {
				used.Add(c)
				fresh.Add(c)
			}
			where := fmt.Sprintf("round %d, %s engine, reset and given %d of %d clauses", round, name, keep, len(clauses))
			if err := sameEngineState(used, fresh); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if keep == 0 {
				continue
			}
			got := resetOps(used, nVars, 60, rand.New(rand.NewSource(seed+1)))
			want := resetOps(fresh, nVars, 60, rand.New(rand.NewSource(seed+1)))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: histories diverge:\nreset: %v\nfresh: %v", where, got, want)
			}
		}
	}
}

// sameEngineState compares two engines' contents: capacities and nil
// versus empty do not count.
func sameEngineState(a, b Propagator) error {
	switch a := a.(type) {
	case *Engine:
		return sameWatchedState(a, b.(*Engine))
	case *Counting:
		return sameCountingState(a, b.(*Counting))
	}
	return fmt.Errorf("unknown engine %T", a)
}

func sameWatchedState(a, b *Engine) error {
	for _, c := range []struct {
		what string
		a, b any
	}{
		{"nVars", a.nVars, b.nVars},
		{"counts", [5]int{a.taut, a.nUnits, a.nEmpty, a.qhead, a.rootLen}, [5]int{b.taut, b.nUnits, b.nEmpty, b.qhead, b.rootLen}},
		{"root state", fmt.Sprint(a.rootQhead, a.rootFixed, a.rootConflict, a.savedVar, a.savedReason),
			fmt.Sprint(b.rootQhead, b.rootFixed, b.rootConflict, b.savedVar, b.savedReason)},
		{"stats", a.Stats(), b.Stats()},
		{"stop error", a.stopErr, b.stopErr},
	} {
		if c.a != c.b {
			return fmt.Errorf("%s: %v vs %v", c.what, c.a, c.b)
		}
	}
	for _, c := range []struct {
		what string
		ok   bool
	}{
		{"arena", slices.Equal(a.arena, b.arena)},
		{"offs", slices.Equal(a.offs, b.offs)},
		{"units", slices.Equal(a.units, b.units)},
		{"empty", slices.Equal(a.empty, b.empty)},
		{"trail", slices.Equal(a.trail, b.trail)},
		{"values", slices.Equal(a.val, b.val)},
		{"reasons", slices.Equal(a.reason, b.reason)},
		{"trail positions", slices.Equal(a.varPos, b.varPos)},
		{"walk marks", slices.Equal(a.seen, b.seen) && len(a.seenReset) == len(b.seenReset)},
		{"literal marks", slices.Equal(a.litMark, b.litMark)},
		{"watch lists", sameLists(a.watches, b.watches)},
		{"core lists", sameLists(a.core, b.core)},
	} {
		if !c.ok {
			return fmt.Errorf("%s differ", c.what)
		}
	}
	return nil
}

func sameCountingState(a, b *Counting) error {
	if a.nVars != b.nVars || a.nEmpty != b.nEmpty || a.qhead != b.qhead || a.Stats() != b.Stats() || a.stopErr != b.stopErr {
		return fmt.Errorf("scalars differ")
	}
	if len(a.clauses) != len(b.clauses) {
		return fmt.Errorf("%d vs %d clauses", len(a.clauses), len(b.clauses))
	}
	for i := range a.clauses {
		ca, cb := a.clauses[i], b.clauses[i]
		if !slices.Equal(ca.lits, cb.lits) || ca.nFalse != cb.nFalse || ca.active != cb.active {
			return fmt.Errorf("clause %d: %+v vs %+v", i, ca, cb)
		}
	}
	if !slices.Equal(a.units, b.units) || !slices.Equal(a.empty, b.empty) || !slices.Equal(a.trail, b.trail) ||
		!slices.Equal(a.assign, b.assign) || !slices.Equal(a.reason, b.reason) || !sameLists(a.occurs, b.occurs) {
		return fmt.Errorf("lists or assignment differ")
	}
	return nil
}

// sameLists compares per-literal lists, a missing list counting as empty.
func sameLists[T comparable](a, b [][]T) bool {
	at := func(ls [][]T, i int) []T {
		if i < len(ls) {
			return ls[i]
		}
		return nil
	}
	for i := 0; i < max(len(a), len(b)); i++ {
		if !slices.Equal(at(a, i), at(b, i)) {
			return false
		}
	}
	return true
}

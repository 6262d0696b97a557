package bcp

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// TestMarkCorePrefersCore: x1 leads to a conflict through two clause pairs,
// (¬1 2)(¬1 ¬2) added first and (¬1 3)(¬1 ¬3) second. In plain watch-list
// order the first pair conflicts; once the second pair is marked core, it
// is reported instead, and the conflict walk visits only core clauses.
func TestMarkCorePrefersCore(t *testing.T) {
	e := NewEngine(4)
	e.Add(cl(-1, 2))
	n2 := e.Add(cl(-1, -2))
	c1 := e.Add(cl(-1, 3))
	c2 := e.Add(cl(-1, -3))
	if conflict, _ := e.Refute(cl(-1)); conflict != n2 {
		t.Fatalf("unmarked: conflict = %d, want %d", conflict, n2)
	}
	e.MarkCore(c1)
	e.MarkCore(c2)
	conflict, _ := e.Refute(cl(-1))
	if conflict != c2 {
		t.Fatalf("marked: conflict = %d, want the core clause %d", conflict, c2)
	}
	e.WalkConflict(conflict, func(id ID) {
		if id != c1 && id != c2 {
			t.Errorf("conflict walk visited non-core clause %d", id)
		}
	})
}

// TestUnmarkedEngineKeepsInputOrder pins, on a seeded verifier-style
// sequence (build, then refute and take clauses out), the conflicts and
// work counters of engines that are never marked. They were recorded before
// core-first propagation existed, so an unmarked engine still visits
// watchers in the same order at the same cost. Taking clauses out with
// Deactivate or with Suspend finds the same conflicts; only the visits to
// suspended clauses' watchers differ.
func TestUnmarkedEngineKeepsInputOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		out   func(*Engine, ID)
		want  string
		stats Stats
	}{
		{"watched", (*Engine).Deactivate, "be957796f005bb1a",
			Stats{Propagations: 2844, Refutations: 351, Conflicts: 147, WatcherVisits: 5744}},
		{"reactivable", (*Engine).Suspend, "be957796f005bb1a",
			Stats{Propagations: 2844, Refutations: 351, Conflicts: 147, WatcherVisits: 7382}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			const nVars = 40
			e := NewEngine(nVars)
			randClause := func(n int) cnf.Clause { // over n distinct variables
				c := make(cnf.Clause, n)
				for j, v := range rng.Perm(nVars)[:n] {
					c[j] = cnf.NewLit(cnf.Var(v), rng.Intn(2) == 0)
				}
				return c
			}
			var ids []ID
			for i := 0; i < 2; i++ {
				ids = append(ids, e.Add(randClause(1)))
			}
			for i := 0; i < 90; i++ {
				ids = append(ids, e.Add(randClause(2+rng.Intn(2))))
			}
			h := fnv.New64a()
			for q := 0; q < 400; q++ {
				if rng.Intn(8) == 0 {
					tc.out(e, ids[rng.Intn(len(ids))])
					continue
				}
				conflict, sc := e.Refute(randClause(3 + rng.Intn(4)))
				fmt.Fprintf(h, "%d/%v,", conflict, sc)
			}
			got := fmt.Sprintf("%016x", h.Sum64())
			if got != tc.want || e.Stats() != tc.stats {
				t.Errorf("conflict sequence %s, stats %+v; want %s, %+v", got, e.Stats(), tc.want, tc.stats)
			}
		})
	}
}

// checkWatchers asserts the watch invariant across both list sets: every
// active clause of two or more literals has exactly two watchers, each on
// one of its first two literals, and they sit in the core lists exactly
// when the clause was marked.
func checkWatchers(t *testing.T, e *Engine) {
	t.Helper()
	count := map[uint32]int{}
	for set, lists := range [][][]watcher{e.watches, e.core} {
		for l, ws := range lists {
			for _, w := range ws {
				meta := e.arena[w.off+1]
				if meta&metaInactive != 0 {
					continue
				}
				count[w.off]++
				ls := e.arena[w.off+hdrWords : w.off+hdrWords+uint32(meta>>metaShift)]
				if ls[0] != cnf.Lit(l) && ls[1] != cnf.Lit(l) {
					t.Fatalf("clause %d watched on %v, not on one of %v", e.arena[w.off], cnf.Lit(l), ls[:2])
				}
				if (set == 1) != (meta&metaCore != 0) {
					t.Fatalf("clause %d (core flag %v) watched in list set %d", e.arena[w.off], meta&metaCore != 0, set)
				}
			}
		}
	}
	for id, off := range e.offs {
		meta := e.arena[off+1]
		if meta>>metaShift >= 2 && meta&metaInactive == 0 && count[off] != 2 {
			t.Fatalf("clause %d has %d watchers", id, count[off])
		}
	}
}

// TestMarkCoreMatchesFreshEngines: engines that mark random clauses core as
// they go — including clauses their conflict walks visit, as the verifier
// does — and take clauses out both for good and reactivably must reach the
// same verdict on every refutation as a fresh engine holding the active
// clauses, and keep the watch invariant. Occasional stop hooks abort
// propagation midway, leaving a non-core scan paused.
func TestMarkCoreMatchesFreshEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	errStop := errors.New("stop")
	for round := 0; round < 1500; round++ {
		nVars := 6 + rng.Intn(10)
		e := NewEngine(nVars)
		randClause := func(minLen, maxLen int) cnf.Clause {
			c := make(cnf.Clause, minLen+rng.Intn(maxLen-minLen+1))
			for j := range c {
				c[j] = cnf.NewLit(cnf.Var(rng.Intn(nVars)), rng.Intn(2) == 0)
			}
			return c
		}
		var ids []ID
		for i := 0; i < 3*nVars; i++ {
			ids = append(ids, e.Add(randClause(1, 4)))
		}
		for q := 0; q < 40; q++ {
			switch rng.Intn(8) {
			case 0:
				e.Deactivate(ids[rng.Intn(len(ids))])
			case 1:
				if id := ids[rng.Intn(len(ids))]; e.isSuspended(id) {
					if err := e.Reactivate(id); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				e.MarkCore(ids[rng.Intn(len(ids))])
			case 3:
				polls := rng.Intn(3)
				e.SetStop(func() error {
					if polls--; polls < 0 {
						return errStop
					}
					return nil
				})
				e.Refute(randClause(0, 2))
				e.SetStop(nil)
			case 4:
				e.Suspend(ids[rng.Intn(len(ids))])
			}
			target := randClause(0, 2)
			got, gotS := e.Refute(target)
			fresh := NewEngine(nVars)
			for _, id := range ids {
				if e.isActive(id) {
					fresh.Add(e.lits(id))
				}
			}
			want, wantS := fresh.Refute(target)
			if gotS != wantS || (got == NoConflict) != (want == NoConflict) {
				t.Fatalf("round %d query %d: refuting %v: core-first (%d,%v), fresh (%d,%v)",
					round, q, target, got, gotS, want, wantS)
			}
			e.WalkConflict(got, func(id ID) {
				if rng.Intn(2) == 0 {
					e.MarkCore(id)
				}
			})
			checkWatchers(t, e)
		}
	}
}

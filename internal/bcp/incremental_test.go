package bcp

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cnf"
)

// TestRootTrailPersistsAcrossRefutes: the root fixpoint is derived once and
// reused — a second Refute that only pushes assumptions must not re-propagate
// the chain.
func TestRootTrailPersistsAcrossRefutes(t *testing.T) {
	const n = 50
	e := NewEngine(n)
	e.Add(cl(1))
	for i := 1; i < n; i++ {
		e.Add(cl(-i, i+1))
	}
	if conflict, _ := e.Refute(nil); conflict != NoConflict {
		t.Fatalf("consistent chain conflicts: %d", conflict)
	}
	if got := e.RootTrailLen(); got != n {
		t.Fatalf("RootTrailLen = %d, want %d", got, n)
	}
	before := e.Propagations()
	// Refuting the implied clause (x_n) clashes with the root literal and
	// must not propagate anything new.
	if conflict, _ := e.Refute(cl(n)); conflict == NoConflict {
		t.Fatal("refuting an implied unit found no conflict")
	}
	if d := e.Propagations() - before; d != 0 {
		t.Errorf("second Refute re-propagated %d literals; root trail not reused", d)
	}
}

// TestDeactivateRootReasonTruncates: removing the reason clause of a root
// literal invalidates that literal and everything after it, but keeps the
// prefix.
func TestDeactivateRootReasonTruncates(t *testing.T) {
	e := NewEngine(3)
	u := e.Add(cl(1))
	a := e.Add(cl(-1, 2))
	e.Add(cl(-2, 3))
	if conflict, _ := e.Refute(nil); conflict != NoConflict {
		t.Fatalf("unexpected conflict %d", conflict)
	}
	if got := e.RootTrailLen(); got != 3 {
		t.Fatalf("RootTrailLen = %d, want 3", got)
	}

	e.Deactivate(a) // reason of x2; x2 and x3 lose their justification
	if got := e.RootTrailLen(); got != 1 {
		t.Fatalf("RootTrailLen after truncation = %d, want 1", got)
	}
	// x3 is no longer implied...
	if conflict, _ := e.Refute(cl(3)); conflict != NoConflict {
		t.Fatalf("x3 still implied after removing the chain link: conflict %d", conflict)
	}
	// ...but x1 still is.
	if conflict, _ := e.Refute(cl(1)); conflict != u {
		t.Fatalf("refuting the kept unit: conflict %d, want %d", conflict, u)
	}
}

// TestDeactivateUnitTruncatesAtZero: removing the unit at the base of the
// root trail empties it.
func TestDeactivateUnitTruncatesAtZero(t *testing.T) {
	e := NewEngine(3)
	u := e.Add(cl(1))
	e.Add(cl(-1, 2))
	e.Add(cl(-2, 3))
	e.Refute(nil)
	e.Deactivate(u)
	if got := e.RootTrailLen(); got != 0 {
		t.Fatalf("RootTrailLen = %d, want 0", got)
	}
	for _, target := range []cnf.Clause{cl(1), cl(2), cl(3)} {
		if conflict, _ := e.Refute(target); conflict != NoConflict {
			t.Fatalf("refuting %v after removing the base unit: conflict %d", target, conflict)
		}
	}
}

// isActive reports whether a clause currently takes part in propagation.
func (e *Engine) isActive(id ID) bool {
	return e.arena[e.offs[id]+1]&metaInactive == 0
}

// isSuspended reports whether a clause was taken out by Suspend and can be
// reactivated.
func (e *Engine) isSuspended(id ID) bool {
	return e.arena[e.offs[id]+1]&metaSuspended != 0
}

// TestReactivateRestoresRootDerivations: undoing a suspension brings the
// derived literals back on the next Refute.
func TestReactivateRestoresRootDerivations(t *testing.T) {
	e := NewEngine(3)
	u := e.Add(cl(1))
	e.Add(cl(-1, 2))
	e.Add(cl(-2, 3))
	e.Refute(nil)

	e.Suspend(u)
	if conflict, _ := e.Refute(cl(3)); conflict != NoConflict {
		t.Fatalf("x3 implied without the base unit: conflict %d", conflict)
	}
	if err := e.Reactivate(u); err != nil {
		t.Fatal(err)
	}
	if conflict, _ := e.Refute(cl(3)); conflict == NoConflict {
		t.Fatal("x3 not re-derived after reactivating the base unit")
	}
}

// TestAddAfterRootFix: clauses added once the root fixpoint exists must
// propagate under it — including clauses that are already unit or falsified
// at root, which force a lazy replay.
func TestAddAfterRootFix(t *testing.T) {
	e := NewEngine(6)
	e.Add(cl(1))
	e.Refute(nil)

	// Unit under the root (¬x1 is false): implies x5.
	e.Add(cl(-1, 5))
	if conflict, _ := e.Refute(cl(5)); conflict == NoConflict {
		t.Fatal("clause unit under root did not propagate")
	}
	// New unit clause extends the root.
	e.Add(cl(6))
	if conflict, _ := e.Refute(cl(6)); conflict == NoConflict {
		t.Fatal("added unit did not extend the root")
	}
	// Falsified under the root: the database is now refuted outright.
	bad := e.Add(cl(-1))
	conflict, _ := e.Refute(cl(2))
	if conflict == NoConflict {
		t.Fatal("database with x1 and ~x1 not refuted")
	}
	_ = bad
}

// TestIncrementalMatchesFreshEngines drives an incremental engine through
// random interleavings of Add/Deactivate/Suspend/Reactivate/Refute and
// cross-checks every verdict against two references built fresh from the
// active clause set for that one query: the counting engine (different
// algorithm) and a new watched engine (same algorithm, no root trail kept
// from earlier queries). Conflict IDs may differ; conflict existence and
// self-contradiction must not. Only suspended clauses are reactivated, and
// reactivating a deactivated one must fail with ErrNotReactivable. Every
// conflict's WalkConflict must visit only active clauses, each at most once.
func TestIncrementalMatchesFreshEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for round := 0; round < 150; round++ {
		nVars := 3 + rng.Intn(8)
		inc := NewEngine(nVars)
		var clauses []cnf.Clause
		var active, suspended []bool

		randClause := func(minLen, maxLen int) cnf.Clause {
			n := minLen + rng.Intn(maxLen-minLen+1)
			c := make(cnf.Clause, 0, n)
			for j := 0; j < n; j++ {
				c = append(c, cnf.NewLit(cnf.Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			return c
		}
		addOne := func() {
			var c cnf.Clause
			if rng.Intn(25) == 0 {
				c = cnf.Clause{} // occasional empty clause
			} else {
				c = randClause(1, 4)
			}
			_, taut := c.Normalize()
			inc.Add(c)
			clauses = append(clauses, c)
			active = append(active, !taut)
			suspended = append(suspended, false)
		}
		for i := 0; i < 3+rng.Intn(10); i++ {
			addOne()
		}

		for q := 0; q < 20; q++ {
			switch rng.Intn(7) {
			case 0:
				addOne()
			case 1:
				i := rng.Intn(len(clauses))
				inc.Deactivate(ID(i)) // a no-op on a suspended clause
				active[i] = false
			case 2:
				i := rng.Intn(len(clauses))
				if active[i] {
					inc.Suspend(ID(i))
					active[i], suspended[i] = false, true
				}
			case 3:
				i := rng.Intn(len(clauses))
				err := inc.Reactivate(ID(i))
				switch {
				case suspended[i]:
					if err != nil {
						t.Fatal(err)
					}
					active[i], suspended[i] = true, false
				case active[i] || inc.arena[inc.offs[i]+1]&metaTaut != 0:
					if err != nil {
						t.Fatalf("round %d: reactivating live or tautological clause %d: %v", round, i, err)
					}
				case !errors.Is(err, ErrNotReactivable):
					t.Fatalf("round %d: reactivating deactivated clause %d: %v, want ErrNotReactivable", round, i, err)
				}
			default:
				var target cnf.Clause
				if rng.Intn(5) > 0 {
					target = randClause(0, 2)
				}
				gotC, gotS := inc.Refute(target)

				fresh := func(p Propagator) (ID, bool) {
					for i, c := range clauses {
						id := p.Add(c)
						if !active[i] {
							p.Deactivate(id)
						}
					}
					return p.Refute(target)
				}
				refC, refS := fresh(NewCounting(nVars))
				nonC, nonS := fresh(NewEngine(nVars))

				if gotS != refS || gotS != nonS ||
					(gotC == NoConflict) != (refC == NoConflict) ||
					(gotC == NoConflict) != (nonC == NoConflict) {
					t.Fatalf("round %d query %v: incremental (%d,%v) vs counting (%d,%v) vs fresh (%d,%v)\nclauses: %v\nactive: %v",
						round, target, gotC, gotS, refC, refS, nonC, nonS, clauses, active)
				}
				if gotC != NoConflict {
					seen := map[ID]int{}
					inc.WalkConflict(gotC, func(id ID) { seen[id]++ })
					for id, cnt := range seen {
						if cnt != 1 {
							t.Fatalf("round %d: clause %d visited %d times", round, id, cnt)
						}
						if !inc.isActive(id) {
							t.Fatalf("round %d: conflict analysis visited inactive clause %d", round, id)
						}
					}
				}
			}
		}
	}
}

// TestIncrementalDeterministicReplay: the incremental engine is a
// deterministic function of its operation sequence — two engines fed the
// same ops report identical conflicts and identical work counters. The
// checkpoint byte-identity contract in internal/core rests on this.
func TestIncrementalDeterministicReplay(t *testing.T) {
	run := func() ([]ID, []bool, Stats) {
		rng := rand.New(rand.NewSource(99))
		e := NewEngine(8)
		var conflicts []ID
		var contras []bool
		var ids []ID
		for i := 0; i < 400; i++ {
			switch rng.Intn(6) {
			case 0:
				n := rng.Intn(4)
				c := make(cnf.Clause, 0, n)
				for j := 0; j < n; j++ {
					c = append(c, cnf.NewLit(cnf.Var(rng.Intn(8)), rng.Intn(2) == 0))
				}
				ids = append(ids, e.Add(c))
			case 1:
				if len(ids) > 0 {
					e.Suspend(ids[rng.Intn(len(ids))])
				}
			case 2:
				if len(ids) > 0 {
					_ = e.Reactivate(ids[rng.Intn(len(ids))])
				}
			case 3:
				if len(ids) > 0 {
					e.Deactivate(ids[rng.Intn(len(ids))])
				}
			default:
				n := rng.Intn(3)
				c := make(cnf.Clause, 0, n)
				for j := 0; j < n; j++ {
					c = append(c, cnf.NewLit(cnf.Var(rng.Intn(8)), rng.Intn(2) == 0))
				}
				conflict, sc := e.Refute(c)
				conflicts = append(conflicts, conflict)
				contras = append(contras, sc)
			}
		}
		return conflicts, contras, e.Stats()
	}
	c1, s1, st1 := run()
	c2, s2, st2 := run()
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(s1, s2) || st1 != st2 {
		t.Fatalf("same op sequence diverged:\nconflicts %v vs %v\nstats %+v vs %+v", c1, c2, st1, st2)
	}
}

// TestUnitKeepsRootConflict: bringing back a unit clause, by Reactivate or
// by Add, while the root fixpoint is in conflict must not lose the
// conflict. The database below is refuted by unit propagation once the
// unit (3) is back; resuming the root propagation from its saved queue
// position, past the point where the conflict was found, used to report
// none. Found by a randomized differential against fresh engines.
func TestUnitKeepsRootConflict(t *testing.T) {
	for name, restore := range map[string]func(e *Engine) error{
		"reactivate": func(e *Engine) error { return e.Reactivate(7) },
		"add":        func(e *Engine) error { e.Add(cl(3)); return nil },
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(5)
			for _, c := range [][]int{{1, 3}, {5}, {3}, {-1}, {2}, {-2, -3}, {-3, -1}, {3}, {-2, -4, 1}, {4, 2}} {
				e.Add(cl(c...))
			}
			e.Suspend(7)
			e.Suspend(3)
			e.Refute(cl(-2))
			if err := e.Reactivate(3); err != nil {
				t.Fatal(err)
			}
			e.Refute(cl(4, -5))
			if err := restore(e); err != nil {
				t.Fatal(err)
			}
			if conflict, _ := e.Refute(nil); conflict == NoConflict {
				t.Fatal("root conflict lost after the unit came back")
			}
		})
	}
}

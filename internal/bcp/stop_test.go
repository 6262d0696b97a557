package bcp

import (
	"errors"
	"testing"

	"repro/internal/cnf"
)

func clauseOf(ds ...int) cnf.Clause {
	var c cnf.Clause
	for _, d := range ds {
		c = append(c, cnf.FromDimacs(d))
	}
	return c
}

// chainEngine loads x1, ¬x1∨x2, ..., ¬x_{n-1}∨x_n into an engine, so that
// refuting {x_n} propagates the whole chain.
func chainEngine(t *testing.T, mk func(int) Propagator, n int) Propagator {
	t.Helper()
	e := mk(n)
	e.Add(clauseOf(1))
	for i := 1; i < n; i++ {
		e.Add(clauseOf(-i, i+1))
	}
	return e
}

func engineMakers() map[string]func(int) Propagator {
	return map[string]func(int) Propagator{
		"watched":  func(n int) Propagator { return NewEngine(n) },
		"counting": func(n int) Propagator { return NewCounting(n) },
	}
}

func TestStopHookAbortsRefute(t *testing.T) {
	errStop := errors.New("stop now")
	const n = 10 * stopPollEvery
	for name, mk := range engineMakers() {
		t.Run(name, func(t *testing.T) {
			e := chainEngine(t, mk, n)

			// A hook that immediately trips aborts before any propagation.
			e.SetStop(func() error { return errStop })
			conflict, selfContra := e.Refute(clauseOf(n))
			if conflict != NoConflict || selfContra {
				t.Fatalf("aborted Refute returned conflict=%v selfContra=%v", conflict, selfContra)
			}
			if !errors.Is(e.StopErr(), errStop) {
				t.Fatalf("StopErr = %v, want %v", e.StopErr(), errStop)
			}

			// A hook that trips after a few polls aborts mid-propagation,
			// with only part of the chain propagated.
			polls := 0
			e.SetStop(func() error {
				if polls++; polls > 2 {
					return errStop
				}
				return nil
			})
			e.Refute(clauseOf(n))
			if !errors.Is(e.StopErr(), errStop) {
				t.Fatalf("StopErr = %v, want %v", e.StopErr(), errStop)
			}

			// Removing the hook restores normal operation, and StopErr clears.
			e.SetStop(nil)
			conflict, _ = e.Refute(clauseOf(n))
			if conflict == NoConflict {
				t.Fatal("chain refutation should conflict")
			}
			if e.StopErr() != nil {
				t.Fatalf("StopErr = %v after clean Refute", e.StopErr())
			}
		})
	}
}

func TestStopHookPollFrequency(t *testing.T) {
	const n = 8 * stopPollEvery
	makers := engineMakers()
	// Every clause marked core: the core head dequeues each literal and
	// the other head follows over empty lists, which must not poll again.
	makers["watched-core"] = func(n int) Propagator {
		return &markingEngine{NewEngine(n)}
	}
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			e := chainEngine(t, mk, n)
			polls := 0
			e.SetStop(func() error { polls++; return nil })
			if conflict, _ := e.Refute(clauseOf(n)); conflict == NoConflict {
				t.Fatal("chain refutation should conflict")
			}
			// Propagating ~n literals must poll roughly n/stopPollEvery
			// times — bounded both ways so the hook neither spams nor
			// starves.
			if polls < 2 || polls > 2+n/stopPollEvery {
				t.Fatalf("polls = %d over %d propagations", polls, n)
			}
		})
	}
}

// markingEngine marks every clause core as it is added.
type markingEngine struct{ *Engine }

func (m *markingEngine) Add(c cnf.Clause) ID {
	id := m.Engine.Add(c)
	m.MarkCore(id)
	return id
}

// TestReactivateTypedError covers both ways to take a clause out: a
// deactivated clause cannot come back, even when suspended afterwards; a
// suspended one can.
func TestReactivateTypedError(t *testing.T) {
	e := NewEngine(3)
	id := e.Add(clauseOf(1, 2))
	e.Deactivate(id)
	if err := e.Reactivate(id); !errors.Is(err, ErrNotReactivable) {
		t.Fatalf("Reactivate after Deactivate = %v, want ErrNotReactivable", err)
	}
	e.Suspend(id)
	if err := e.Reactivate(id); !errors.Is(err, ErrNotReactivable) {
		t.Fatalf("Reactivate after Deactivate then Suspend = %v, want ErrNotReactivable", err)
	}

	sid := e.Add(clauseOf(1, 2))
	e.Suspend(sid)
	if err := e.Reactivate(sid); err != nil {
		t.Fatalf("Reactivate after Suspend = %v", err)
	}
	if conflict, _ := e.Refute(clauseOf(1, 2)); conflict != sid {
		t.Fatalf("reactivated clause not propagating: conflict %d, want %d", conflict, sid)
	}
}

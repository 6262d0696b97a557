package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// runCollect executes the DAG and returns the global completion order
// (serialized by a mutex, so it is a valid linearization of the run).
func runCollect(t *testing.T, d *DAG, opt Options) []int {
	t.Helper()
	var mu sync.Mutex
	var order []int
	_, err := Run(d, opt, func(w, task, attempt int) error {
		mu.Lock()
		order = append(order, task)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return order
}

// checkTopological fails unless every task ran after all its predecessors.
func checkTopological(t *testing.T, d *DAG, order []int) {
	t.Helper()
	pos := make(map[int]int, len(order))
	for i, task := range order {
		if prev, dup := pos[task]; dup {
			t.Fatalf("task %d ran twice (positions %d and %d)", task, prev, i)
		}
		pos[task] = i
	}
	for from := 0; from < d.Tasks(); from++ {
		for _, to := range d.Successors(from) {
			pf, okF := pos[from]
			pt, okT := pos[int(to)]
			if !okF || !okT {
				continue
			}
			if pf > pt {
				t.Fatalf("edge %d->%d violated: %d ran at %d, %d at %d", from, to, from, pf, to, pt)
			}
		}
	}
}

func TestRunChainRespectsOrder(t *testing.T) {
	b := NewBuilder(100)
	for i := 0; i < 99; i++ {
		b.AddEdge(i, i+1)
	}
	d := b.Build()
	order := runCollect(t, d, Options{Workers: 4})
	if len(order) != 100 {
		t.Fatalf("executed %d of 100 tasks", len(order))
	}
	for i, task := range order {
		if task != i {
			t.Fatalf("chain ran out of order at position %d: task %d", i, task)
		}
	}
}

func TestRunEmptyDAG(t *testing.T) {
	st, err := Run(NewBuilder(0).Build(), Options{Workers: 3}, func(w, task, attempt int) error {
		t.Error("task ran on empty DAG")
		return nil
	})
	if err != nil || st.Executed != 0 {
		t.Fatalf("empty run: %+v, %v", st, err)
	}
}

// randomDAG builds a DAG whose shape is drawn from rng: forward edges with
// probability p over a window, so both wide and chain-like graphs appear.
func randomDAG(rng *rand.Rand) *DAG {
	n := 1 + rng.Intn(120)
	b := NewBuilder(n)
	window := 1 + rng.Intn(16)
	p := rng.Float64() * 0.8
	for to := 1; to < n; to++ {
		lo := to - window
		if lo < 0 {
			lo = 0
		}
		for from := lo; from < to; from++ {
			if rng.Float64() < p {
				b.AddEdge(from, to)
			}
		}
		b.SetCost(to, int64(1+rng.Intn(8)))
	}
	return b.Build()
}

// 200 randomized DAG shapes at random worker counts; under `go test -race`
// this doubles as the scheduler's data-race stress.
func TestRunRandomizedStress(t *testing.T) {
	rng := rand.New(rand.NewSource(0xDA6))
	for round := 0; round < 200; round++ {
		d := randomDAG(rng)
		workers := 1 + rng.Intn(8)
		order := runCollect(t, d, Options{Workers: workers})
		if len(order) != d.Tasks() {
			t.Fatalf("round %d: executed %d of %d tasks", round, len(order), d.Tasks())
		}
		checkTopological(t, d, order)
	}
}

func TestRunPanicRetriesOnce(t *testing.T) {
	d := NewBuilder(50).Build()
	var firstAttempts, retries atomic.Int64
	st, err := Run(d, Options{Workers: 4}, func(w, task, attempt int) error {
		if attempt == 0 {
			firstAttempts.Add(1)
			if task == 17 {
				panic("boom")
			}
			return nil
		}
		retries.Add(1)
		if task != 17 {
			t.Errorf("retry of task %d, want 17", task)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if retries.Load() != 1 || st.Retries != 1 {
		t.Fatalf("retries = %d (stats %d), want 1", retries.Load(), st.Retries)
	}
	if st.Executed != 50 {
		t.Fatalf("executed %d of 50", st.Executed)
	}
}

func TestRunDoublePanicAttributes(t *testing.T) {
	d := NewBuilder(20).Build()
	_, err := Run(d, Options{Workers: 3}, func(w, task, attempt int) error {
		if task == 5 {
			panic(fmt.Sprintf("attempt %d", attempt))
		}
		return nil
	})
	var tp *TaskPanicError
	if !errors.As(err, &tp) {
		t.Fatalf("err = %v, want TaskPanicError", err)
	}
	if tp.Task != 5 || tp.Attempts != 2 || tp.Value != "attempt 1" || len(tp.Stack) == 0 {
		t.Fatalf("panic attribution = %+v", tp)
	}
}

func TestRunTaskErrorStops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	sentinel := errors.New("bad step")
	var ran atomic.Int64
	_, err := Run(b.Build(), Options{Workers: 2}, func(w, task, attempt int) error {
		ran.Add(1)
		if task == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if ran.Load() != 2 {
		t.Fatalf("ran %d tasks, want 2 (task 2 must not run after the failure)", ran.Load())
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d := NewBuilder(1000).Build()
	var ran atomic.Int64
	_, err := Run(d, Options{Workers: 2, Ctx: ctx}, func(w, task, attempt int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop the run (%d tasks ran)", n)
	}
}

// Overflow: with a one-slot deque and many roots, the shared overflow list
// must absorb the rest and every task must still run exactly once.
func TestRunDequeOverflow(t *testing.T) {
	old := dequeCap
	dequeCap = 1
	defer func() { dequeCap = old }()
	d := NewBuilder(500).Build()
	var ran atomic.Int64
	st, err := Run(d, Options{Workers: 3}, func(w, task, attempt int) error {
		ran.Add(1)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran.Load() != 500 || st.Executed != 500 {
		t.Fatalf("executed %d (stats %d), want 500", ran.Load(), st.Executed)
	}
	if st.Overflow == 0 {
		t.Fatal("one-slot deques with 500 roots recorded no overflow")
	}
}

// An imbalanced seed (all work released by one root chain) must produce
// steals when more than one worker is available.
func TestRunSteals(t *testing.T) {
	// One root fanning out to many independent heavy tasks: the fan-out all
	// lands on the completing worker's deque, so other workers must steal.
	n := 400
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	var spin atomic.Int64
	st, err := Run(b.Build(), Options{Workers: 4}, func(w, task, attempt int) error {
		// A little real work so workers overlap.
		for i := 0; i < 2000; i++ {
			spin.Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Executed != int64(n) {
		t.Fatalf("executed %d of %d", st.Executed, n)
	}
	if st.Steals == 0 {
		t.Skip("no steals observed (single-CPU scheduling can serialize workers)")
	}
}

// Worker indices passed to the TaskFunc must be usable as indexes into
// caller-side per-worker state: only one goroutine per index.
func TestRunWorkerIndexExclusive(t *testing.T) {
	d := NewBuilder(2000).Build()
	workers := 4
	inUse := make([]atomic.Int32, workers)
	_, err := Run(d, Options{Workers: workers}, func(w, task, attempt int) error {
		if w < 0 || w >= workers {
			return fmt.Errorf("worker index %d out of range", w)
		}
		if inUse[w].Add(1) != 1 {
			return fmt.Errorf("worker index %d used concurrently", w)
		}
		defer inUse[w].Add(-1)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

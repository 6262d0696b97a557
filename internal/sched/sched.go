package sched

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// The work-stealing runtime. Each worker owns a bounded ring deque; the
// initial ready set (in-degree-zero tasks) is dealt round-robin across the
// deques, a worker pops its own deque LIFO (the task it released most
// recently is the one whose antecedents are hottest in cache) and steals
// FIFO from random victims (the oldest task in a victim's deque is the one
// furthest from the victim's current locality, so stealing it costs the
// victim least). Completing a task decrements each successor's in-degree;
// a successor reaching zero is pushed onto the completing worker's own
// deque, or onto a shared overflow list when the deque is full — overflow
// keeps the bounded deques an optimization, never a correctness limit.
//
// # Failure isolation
//
// A panic inside the TaskFunc is recovered and the task retried once on the
// same worker with attempt=1 (the caller rebuilds whatever per-worker state
// it suspects, e.g. a fresh replay scratchpad or a fallback engine). A
// second panic stops the run with a *TaskPanicError attributing worker,
// task and attempts. The first stop cause wins — later failures and context
// cancellation funnel through the same slot.

// TaskFunc executes one task. worker identifies the executing worker's
// dense index (stable across the run, usable to index caller-side per-worker
// state — only one goroutine ever passes a given worker index). attempt is 0
// for the first try and 1 for the post-panic retry.
type TaskFunc func(worker, task, attempt int) error

// Options configures Run.
type Options struct {
	// Workers is the number of worker goroutines; <= 0 selects GOMAXPROCS.
	Workers int
	// Ctx, when non-nil, cancels the run: Run stops promptly and returns
	// ctx.Err(). Cancellation is polled once per task.
	Ctx context.Context
	// Obs, when non-nil, receives sched.* counters (tasks, steals,
	// overflow, retries) and per-worker trace lanes with task.claim /
	// task.steal / task.release instants.
	Obs *obs.Registry
	// TrackPrefix names the flight-recorder lanes ("<prefix>-w<N>");
	// empty selects "sched".
	TrackPrefix string
}

// RunStats reports what the scheduler did.
type RunStats struct {
	// Executed counts tasks that ran to completion.
	Executed int64
	// Steals counts tasks acquired from another worker's deque.
	Steals int64
	// Overflow counts ready tasks that missed a full deque and took the
	// shared overflow list instead.
	Overflow int64
	// Retries counts post-panic second attempts.
	Retries int64
}

// TaskPanicError reports a task whose retry panicked too.
type TaskPanicError struct {
	Worker   int
	Task     int
	Attempts int
	Value    any
	Stack    []byte
}

func (e *TaskPanicError) Error() string {
	return fmt.Sprintf("sched: worker %d: task %d panicked after %d attempts: %v",
		e.Worker, e.Task, e.Attempts, e.Value)
}

// dequeCap bounds each worker's ring deque. A variable so tests can shrink
// it to force the overflow path.
var dequeCap = 256

// deque is one worker's bounded ring. A mutex per deque is plenty here:
// the owner's pops dominate and contend only with occasional steals.
type deque struct {
	mu         sync.Mutex
	buf        []int32
	head, tail int // tasks live at [head, tail); indices grow unbounded, mod cap
}

func (q *deque) pushTail(t int32) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.tail-q.head == len(q.buf) {
		return false
	}
	q.buf[q.tail%len(q.buf)] = t
	q.tail++
	return true
}

func (q *deque) popTail() (int32, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.tail == q.head {
		return 0, false
	}
	q.tail--
	return q.buf[q.tail%len(q.buf)], true
}

func (q *deque) stealHead() (int32, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.tail == q.head {
		return 0, false
	}
	t := q.buf[q.head%len(q.buf)]
	q.head++
	return t, true
}

type runState struct {
	d   *DAG
	fn  TaskFunc
	ctx context.Context

	indeg  []int32 // live in-degrees, decremented atomically
	deques []*deque

	overflowMu sync.Mutex
	overflow   []int32

	remaining atomic.Int64
	stopPtr   atomic.Pointer[error]

	// Parking: a worker that finds no work anywhere re-checks after
	// snapshotting sig; a releaser bumps sig before waking. Both sides use
	// sequentially consistent atomics, so either the parker sees the new
	// sig and retries, or the releaser sees the waiter and broadcasts.
	sig     atomic.Uint64
	waiters atomic.Int32
	parkMu  sync.Mutex
	park    *sync.Cond

	executed, steals, overflowN, retries atomic.Int64
}

func (rs *runState) stop(err error) {
	e := err
	rs.stopPtr.CompareAndSwap(nil, &e)
	rs.wake()
}

// wake is the releaser side of the parking protocol.
func (rs *runState) wake() {
	rs.sig.Add(1)
	if rs.waiters.Load() > 0 {
		rs.parkMu.Lock()
		rs.park.Broadcast()
		rs.parkMu.Unlock()
	}
}

func (rs *runState) finished() bool {
	return rs.remaining.Load() == 0 || rs.stopPtr.Load() != nil
}

// acquire finds the next task: own deque (LIFO), the shared overflow list,
// then FIFO steals from victims in random order. stolen reports a steal.
func (rs *runState) acquire(w int, rng *rand.Rand) (task int32, stolen bool, ok bool) {
	if t, ok := rs.deques[w].popTail(); ok {
		return t, false, true
	}
	rs.overflowMu.Lock()
	if n := len(rs.overflow); n > 0 {
		t := rs.overflow[0]
		rs.overflow = rs.overflow[1:]
		rs.overflowMu.Unlock()
		return t, false, true
	}
	rs.overflowMu.Unlock()
	if len(rs.deques) > 1 {
		for _, v := range rng.Perm(len(rs.deques)) {
			if v == w {
				continue
			}
			if t, ok := rs.deques[v].stealHead(); ok {
				return t, true, true
			}
		}
	}
	return 0, false, false
}

// release pushes a newly-ready task toward worker w's deque.
func (rs *runState) release(w int, t int32) {
	if !rs.deques[w].pushTail(t) {
		rs.overflowMu.Lock()
		rs.overflow = append(rs.overflow, t)
		rs.overflowMu.Unlock()
		rs.overflowN.Add(1)
	}
}

func (rs *runState) attempt(w, t, attempt int) (err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			err = &TaskPanicError{Worker: w, Task: t, Attempts: attempt + 1,
				Value: r, Stack: debug.Stack()}
			panicked = true
		}
	}()
	return rs.fn(w, t, attempt), false
}

// complete releases task t's successors.
func (rs *runState) complete(w, t int, wtrack *trace.Track) {
	released := false
	for _, s := range rs.d.Successors(t) {
		if atomic.AddInt32(&rs.indeg[s], -1) == 0 {
			rs.release(w, s)
			wtrack.Instant("task.release", int64(s))
			released = true
		}
	}
	rs.executed.Add(1)
	if rs.remaining.Add(-1) == 0 {
		rs.wake()
		return
	}
	if released {
		rs.wake()
	}
}

func (rs *runState) worker(w int, wtrack *trace.Track, wspan *obs.Span) {
	defer wspan.End()
	// Per-worker deterministic victim order; no shared rand state.
	rng := rand.New(rand.NewSource(int64(w)*0x9E3779B9 + 1))
	for {
		if rs.finished() {
			return
		}
		t, stolen, ok := rs.acquire(w, rng)
		if !ok {
			g := rs.sig.Load()
			if t, stolen, ok = rs.acquire(w, rng); !ok {
				if rs.finished() {
					return
				}
				rs.parkMu.Lock()
				rs.waiters.Add(1)
				if rs.sig.Load() == g && !rs.finished() {
					rs.park.Wait()
				}
				rs.waiters.Add(-1)
				rs.parkMu.Unlock()
				continue
			}
		}
		if stolen {
			rs.steals.Add(1)
			wtrack.Instant("task.steal", int64(t))
		} else {
			wtrack.Instant("task.claim", int64(t))
		}
		if rs.ctx != nil {
			if err := rs.ctx.Err(); err != nil {
				rs.stop(err)
				return
			}
		}
		err, panicked := rs.attempt(w, int(t), 0)
		if panicked {
			rs.retries.Add(1)
			err, _ = rs.attempt(w, int(t), 1)
		}
		if err != nil {
			rs.stop(err)
			return
		}
		rs.complete(w, int(t), wtrack)
	}
}

// Run executes fn over every task of d in dependency order, work-stealing
// style. It returns when all tasks completed, or when the run stopped
// (context, task error, double panic) — the first stop cause is returned
// alongside the partial stats.
func Run(d *DAG, opt Options, fn TaskFunc) (*RunStats, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}

	span := opt.Obs.StartSpan("sched-run")
	defer span.End()

	rs := &runState{d: d, fn: fn, ctx: opt.Ctx}
	rs.park = sync.NewCond(&rs.parkMu)
	rs.indeg = append([]int32(nil), d.indeg...)
	rs.remaining.Store(int64(d.n))
	if d.n == 0 {
		return &RunStats{}, nil
	}

	rs.deques = make([]*deque, workers)
	for w := range rs.deques {
		rs.deques[w] = &deque{buf: make([]int32, dequeCap)}
	}
	// Seed the ready set round-robin so the initial work is spread before
	// the first steal is ever needed.
	next := 0
	for t := 0; t < d.n; t++ {
		if rs.indeg[t] == 0 {
			rs.release(next%workers, int32(t))
			next++
		}
	}

	prefix := opt.TrackPrefix
	if prefix == "" {
		prefix = "sched"
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wtrack := opt.Obs.NewTrack(fmt.Sprintf("%s-w%d", prefix, w))
		wspan := span.ChildOn(wtrack, fmt.Sprintf("%s-w%d", prefix, w))
		wg.Add(1)
		go func(w int, wtrack *trace.Track, wspan *obs.Span) {
			defer wg.Done()
			rs.worker(w, wtrack, wspan)
		}(w, wtrack, wspan)
	}
	wg.Wait()

	st := &RunStats{
		Executed: rs.executed.Load(),
		Steals:   rs.steals.Load(),
		Overflow: rs.overflowN.Load(),
		Retries:  rs.retries.Load(),
	}
	opt.Obs.Counter("sched.tasks").Add(st.Executed)
	opt.Obs.Counter("sched.steals").Add(st.Steals)
	opt.Obs.Counter("sched.overflow").Add(st.Overflow)
	opt.Obs.Counter("sched.retries").Add(st.Retries)
	if p := rs.stopPtr.Load(); p != nil {
		return st, *p
	}
	return st, nil
}

// Package cli is the front end the command-line binaries share, so the
// exit-code contract and the observability flags behave identically in
// every one of them: flag parsing, the run context (a -timeout deadline
// plus SIGINT/SIGTERM), the observability outputs (metrics registry, flight
// recorder, -metrics listener, -stats-json), input reading, LRAT output,
// and checkpoint-journal start-up with the crash-injection hook.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/atomicio"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/exitcode"
	"repro/internal/lrat"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// Tool is a binary's name; it prefixes the binary's stderr diagnostics.
type Tool string

// Warn prints "tool: args..." on stderr.
func (t Tool) Warn(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{string(t) + ":"}, args...)...)
}

// Fail prints "tool: args..." on stderr and returns code, for
// `return tool.Fail(exitcode.X, err)`.
func (t Tool) Fail(code int, args ...any) int {
	t.Warn(args...)
	return code
}

// Parse parses the command line and checks that it names exactly nargs
// positional arguments, printing usage otherwise. ok=false means the caller
// exits with code: OK after -h, Usage after a bad flag or argument count.
// Parsing continues on error because the flag package's own exit status
// for a bad flag, 2, is reserved for a rejected proof.
func Parse(nargs int, usage string) (code int, ok bool) {
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitcode.OK, false
		}
		return exitcode.Usage, false
	}
	if flag.NArg() != nargs {
		return Usage(usage), false
	}
	return exitcode.OK, true
}

// Usage prints the usage line on stderr and returns exitcode.Usage.
func Usage(usage string) int {
	fmt.Fprintln(os.Stderr, usage)
	return exitcode.Usage
}

// Outputs are the observability flags a binary exposes; a zero field
// leaves its output off.
type Outputs struct {
	StatsJSON  string // write a JSON snapshot of every metric and the span tree
	Metrics    string // serve live metrics over HTTP on this address
	Pprof      bool   // with Metrics: also serve net/http/pprof
	Progress   bool   // the binary reports progress from the registry
	TraceOut   string // write the flight recording as Chrome trace-event JSON
	TraceJSONL string // write the flight recording as JSONL events
	TraceBuf   int    // flight recorder ring capacity per track
}

func (o Outputs) tracing() bool { return o.TraceOut != "" || o.TraceJSONL != "" }

// Run is one invocation's context and observability state.
type Run struct {
	// Ctx ends on SIGINT or SIGTERM, and at the timeout given to Start.
	Ctx context.Context
	// Reg exists whenever any output is requested; nil otherwise, which
	// turns every instrument call into a nil check.
	Reg *obs.Registry

	tool    Tool
	out     Outputs
	rec     *trace.Recorder
	cleanup []func()
}

// Context returns the run context: it ends on SIGINT or SIGTERM (a ^C or a
// supervisor's polite kill), and after timeout when that is positive. stop
// releases it.
func Context(timeout time.Duration) (ctx context.Context, stop func()) {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	return ctx, func() { stopSignals(); cancel() }
}

// Start builds the run context and the observability outputs. Checkers call
// it before reading their inputs, so a signal or the deadline landing
// mid-parse still ends the run under the exit-code contract. Close must be
// deferred on success; on error nothing is left running.
func (t Tool) Start(timeout time.Duration, out Outputs) (*Run, error) {
	ctx, stop := Context(timeout)
	r := &Run{Ctx: ctx, tool: t, out: out, cleanup: []func(){stop}}
	if out.StatsJSON != "" || out.Metrics != "" || out.Progress || out.tracing() {
		r.Reg = obs.New()
	}
	if out.tracing() {
		r.rec = trace.New(out.TraceBuf)
		r.Reg.SetTracer(r.rec)
	}
	if out.Metrics != "" {
		addr, shutdown, err := obs.Serve(ctx, out.Metrics, r.Reg, out.Pprof)
		if err != nil {
			r.Close()
			return nil, err
		}
		r.cleanup = append(r.cleanup, func() { shutdown() })
		fmt.Fprintf(os.Stderr, "c metrics: http://%v/debug/vars (Prometheus at /metrics)\n", addr)
	}
	return r, nil
}

// Close flushes the flight recording — on every exit path, since a rejected
// or interrupted run's recording is exactly the one worth reading — then
// stops the metrics listener and releases the run context.
func (r *Run) Close() {
	if r.rec != nil {
		if err := r.writeTrace(); err != nil {
			r.tool.Warn(err)
		}
	}
	for i := len(r.cleanup) - 1; i >= 0; i-- {
		r.cleanup[i]()
	}
}

// writeTrace ends the registry's root span, so the recording's outermost
// span is closed, and writes the recording atomically to the requested
// files. A ring overflow is reported on stderr.
func (r *Run) writeTrace() error {
	r.Reg.Root().End()
	if p := r.out.TraceOut; p != "" {
		err := atomicio.WriteFile(p, func(w io.Writer) error { return trace.WriteChrome(w, r.rec) })
		if err != nil {
			return err
		}
	}
	if p := r.out.TraceJSONL; p != "" {
		err := atomicio.WriteFile(p, func(w io.Writer) error { return trace.WriteJSONL(w, r.rec) })
		if err != nil {
			return err
		}
	}
	if d := r.rec.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "c %s trace: ring overflow dropped %d events (raise -trace-buf)\n", r.tool, d)
	}
	return nil
}

// WriteStats writes the -stats-json snapshot, when one was requested.
func (r *Run) WriteStats() error {
	if r.out.StatsJSON == "" {
		return nil
	}
	return atomicio.WriteFile(r.out.StatsJSON, r.Reg.WriteJSON)
}

// ReadFormula parses the DIMACS formula at path under the parse-formula
// span.
func (r *Run) ReadFormula(path string) (*cnf.Formula, error) {
	span := r.Reg.StartSpan("parse-formula")
	defer span.End()
	return Read(path, cnf.ParseDimacs)
}

// Read opens the file at path and parses it with parse. Every error names
// the path: os.Open's already does, and a parse error is prefixed with it,
// since the readers' messages do not say which input failed.
func Read[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	v, err := parse(f)
	if err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// WriteLRAT renders a recorder's proof to path (text or binary) atomically.
func WriteLRAT(path string, rec *lrat.Recorder, binary bool) error {
	lp, err := rec.Proof()
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, func(w io.Writer) error {
		if binary {
			return lrat.WriteBinary(w, lp)
		}
		return lrat.Write(w, lp)
	})
}

// StartJournal is core.StartJournal for a CLI run: an old journal that is
// not resumed is reported as a warning (the run starts from scratch, never
// with a wrong verdict), and the checkpoint sink gets the CrashSink hook.
func (t Tool) StartJournal(path string, f *cnf.Formula, m int, proofFP uint64,
	opt *core.Options, every int, resume bool) (*core.Journal, error) {
	jw, warn, err := core.StartJournal(path, f, m, proofFP, opt, every, resume)
	if warn != nil {
		fmt.Fprintf(os.Stderr, "%s: warning: not resuming (%v); running from scratch\n", t, warn)
	}
	if err != nil {
		return nil, err
	}
	opt.Checkpoint.Sink = CrashSink(opt.Checkpoint.Sink)
	return jw, nil
}

// EnvCrashAfterAppends names the environment hook used by the
// kill-and-recover fault harness: when set to a positive integer N, the
// process SIGKILLs itself immediately after the Nth durable checkpoint
// append. The record is already fsynced when the signal fires, so the crash
// lands exactly on the "record durable, everything after it lost" boundary
// — the same state a power cut mid-run leaves behind.
const EnvCrashAfterAppends = "DPV_FAULT_CRASH_AFTER_APPENDS"

// CrashSink wraps a checkpoint sink with the EnvCrashAfterAppends hook. With
// the variable unset (the normal case) the sink is returned unchanged.
func CrashSink(sink func([]byte) error) func([]byte) error {
	n, err := strconv.Atoi(os.Getenv(EnvCrashAfterAppends))
	if err != nil || n <= 0 {
		return sink
	}
	var appends int
	return func(p []byte) error {
		if err := sink(p); err != nil {
			return err
		}
		appends++
		if appends >= n {
			// A genuine SIGKILL: no deferred cleanup, no exit handlers — the
			// closest stand-in for a power cut a process can give itself.
			proc, _ := os.FindProcess(os.Getpid())
			proc.Kill()
			select {} // wait for the signal to land
		}
		return nil
	}
}

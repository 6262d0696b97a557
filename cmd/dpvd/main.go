// Command dpvd runs the proof-verification service: a long-lived daemon
// that accepts formula+proof uploads over HTTP, verifies them with the
// paper's checker on a bounded worker pool, and serves verdicts, unsat
// cores and statistics — the CLI's exit-code contract turned into an API.
//
// Usage:
//
//	dpvd [flags]
//
// Flags:
//
//	-addr ADDR        listen address (default :8100)
//	-store DIR        disk-backed job store root; empty = in-memory only
//	                  (no crash recovery, no checkpoint journals)
//	-workers N        concurrent verification workers (default 2)
//	-queue N          admission queue capacity across tenants (default 64)
//	-tenant-queued N  per-tenant queued-job quota (default: queue capacity)
//	-tenant-running N per-tenant concurrency quota (default: workers)
//	-job-timeout D    per-job verification deadline (0 = unlimited)
//	-max-props N      per-job propagation budget (0 = unlimited)
//	-max-memory N     per-job estimated-memory budget in bytes (0 = unlimited)
//	-engine NAME      watched | counting (default watched)
//	-all              check every proof clause (Proof_verification1)
//	-checkpoint-every N  journal interval in proof clauses (default 1000;
//	                  -1 disables checkpointing even with -store)
//	-max-upload N     upload body size cap in bytes (default 256 MiB); also
//	                  caps the parsed uploads queued jobs hold in memory
//	-retry-after D    backpressure hint on 429/503 responses (default 2s)
//	-drain-timeout D  how long SIGTERM/SIGINT waits for in-flight jobs to
//	                  checkpoint and stop before exiting anyway (default 30s)
//	-pprof            serve net/http/pprof under /debug/pprof/
//	-q                quiet: suppress operational log lines
//
// API: POST /v1/jobs (multipart parts "formula", "proof"; optional
// X-Dpv-Tenant header) returns 202 with a job ID; GET /v1/jobs/{id} the
// state and result; GET /v1/jobs/{id}/core the unsat core as DIMACS.
// /metrics, /debug/vars, /healthz and /readyz serve observability. A full
// queue answers 429 with Retry-After; a draining daemon answers 503.
//
// Fault model: SIGTERM/SIGINT drain gracefully (in-flight jobs stop and
// keep their last checkpoint record; queued jobs stay durable for the next
// start).
// After a SIGKILL or power cut, restarting with the same -store recovers
// every unfinished job and resumes it from its checkpoint journal; resumed
// verdicts are byte-identical to uninterrupted ones.
//
// Exit status: 0 after a clean drain, 1 on usage errors, 6 when the
// listener or store cannot be set up or drain times out.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/exitcode"
	"repro/internal/obs"
	"repro/internal/service"
)

const tool = cli.Tool("dpvd")

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8100", "listen address")
	storeDir := flag.String("store", "", "disk-backed job store root (empty = in-memory)")
	workers := flag.Int("workers", 2, "concurrent verification workers")
	queueCap := flag.Int("queue", 64, "admission queue capacity")
	tenantQueued := flag.Int("tenant-queued", 0, "per-tenant queued-job quota (0 = queue capacity)")
	tenantRunning := flag.Int("tenant-running", 0, "per-tenant concurrency quota (0 = workers)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job verification deadline (0 = unlimited)")
	maxProps := flag.Int64("max-props", 0, "per-job propagation budget (0 = unlimited)")
	maxMemory := flag.Int64("max-memory", 0, "per-job estimated-memory budget in bytes (0 = unlimited)")
	engine := flag.String("engine", "watched", "BCP engine: watched | counting")
	all := flag.Bool("all", false, "check every clause (Proof_verification1)")
	checkpointEvery := flag.Int("checkpoint-every", 1000, "journal interval in proof clauses (-1 disables)")
	maxUpload := flag.Int64("max-upload", 256<<20, "upload body size cap in bytes; also caps the parsed uploads queued jobs hold in memory")
	retryAfter := flag.Duration("retry-after", 2*time.Second, "backpressure hint on 429/503")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
	pprofFlag := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	quiet := flag.Bool("q", false, "quiet")
	if code, ok := cli.Parse(0, "usage: dpvd [flags]"); !ok {
		return code
	}
	var engineKind core.EngineKind
	switch *engine {
	case "watched":
		engineKind = core.EngineWatched
	case "counting":
		engineKind = core.EngineCounting
	default:
		return tool.Fail(exitcode.Usage, fmt.Sprintf("unknown engine %q", *engine))
	}
	mode := core.ModeCheckMarked
	if *all {
		mode = core.ModeCheckAll
	}

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	var store service.Store
	if *storeDir != "" {
		ds, err := service.NewDiskStore(*storeDir)
		if err != nil {
			return tool.Fail(exitcode.Internal, err)
		}
		store = ds
	} else {
		store = service.NewMemStore()
	}

	reg := obs.New()
	d, err := service.New(service.Options{
		Store:           store,
		Workers:         *workers,
		QueueCap:        *queueCap,
		DefaultQuota:    service.TenantQuota{MaxQueued: *tenantQueued, MaxRunning: *tenantRunning},
		JobTimeout:      *jobTimeout,
		Budget:          core.Budget{MaxPropagations: *maxProps, MaxMemoryBytes: *maxMemory},
		Mode:            mode,
		Engine:          engineKind,
		CheckpointEvery: *checkpointEvery,
		MaxUploadBytes:  *maxUpload,
		RetryAfter:      *retryAfter,
		Obs:             reg,
		SinkWrap:        cli.CrashSink,
		Logf:            logf,
	})
	if err != nil {
		return tool.Fail(exitcode.Internal, err)
	}

	if n, err := d.Recover(); err != nil {
		return tool.Fail(exitcode.Internal, err)
	} else if n > 0 {
		logf("dpvd: recovered %d unfinished job(s); resuming", n)
	}
	d.Start()

	srv := &http.Server{Addr: *addr, Handler: d.Handler(*pprofFlag)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	ctx, stop := cli.Context(0)
	defer stop()
	logf("dpvd: listening on %s (store=%s workers=%d queue=%d)", *addr, storeDesc(*storeDir), *workers, *queueCap)

	select {
	case err := <-errc:
		// The listener died on its own (port in use, ...): nothing to drain.
		return tool.Fail(exitcode.Internal, err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, then give in-flight jobs
	// the grace period to checkpoint and stop. Queued jobs stay durable.
	logf("dpvd: draining (grace %v)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		logf("dpvd: http shutdown: %v", err)
	}
	if err := d.Drain(dctx); err != nil {
		return tool.Fail(exitcode.Internal, err)
	}
	logf("dpvd: drained cleanly")
	return exitcode.OK
}

func storeDesc(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}

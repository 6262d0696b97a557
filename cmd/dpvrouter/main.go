// Command dpvrouter is the cluster front tier for dpvd: it consistent-
// hashes job IDs onto backend shards, replicates completed verdicts onto R
// nodes (each of which re-verifies the hinted proof before acking), and
// keeps the job API answering while individual shards die and return.
//
// Usage:
//
//	dpvrouter -shards URL[,URL...] [flags]
//
// Flags:
//
//	-addr ADDR            listen address (default :8200)
//	-shards LIST          comma-separated backend base URLs (required)
//	-replication R        copies per verdict, primary included (default 2)
//	-hedge-delay D        wait on the primary before asking a replica (50ms)
//	-health-interval D    /readyz probe period (default 250ms)
//	-health-failures N    consecutive probe failures that eject (default 3)
//	-replicate-interval D verdict replication sweep period (default 100ms)
//	-retry-after D        backpressure hint on 429/503 (default 2s)
//	-max-upload N         upload body cap in bytes (default 64 MiB)
//	-breaker-threshold N  consecutive failures that open a shard's circuit
//	                      breaker (default 5)
//	-breaker-open-for D   how long an open breaker rejects before probing
//	                      (default 1s)
//	-forward-attempts N   admission attempts, each walking every live shard
//	                      (default 3)
//	-forward-timeout D    per-backend-request timeout (default 5s)
//	-pprof                serve net/http/pprof under /debug/pprof/
//	-q                    quiet: suppress operational log lines
//
// The router serves the same job API as a single dpvd (POST /v1/jobs,
// GET /v1/jobs/{id} with hedged reads, /core, /lrat, /recheck) plus
// GET /v1/cluster for topology, and /metrics, /healthz, /readyz.
//
// Fault model: a shard that dies mid-job is ejected after -health-failures
// probes; every job it owed a verdict is re-admitted on a survivor from the
// router's retained copy of the upload — an admitted job is never lost.
// Completed verified verdicts are replicated (verdict JSON + hinted proof +
// formula) to R shards; replicas re-verify the proof before acking, so a
// corrupted copy can never be served. Reads hedge to replicas when the
// primary is slow or gone.
//
// Exit status: 0 after a clean shutdown, 1 on usage errors, 6 when the
// listener cannot be set up.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/cluster"
	"repro/internal/exitcode"
	"repro/internal/obs"
	"repro/internal/retry"
)

const tool = cli.Tool("dpvrouter")

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8200", "listen address")
	shards := flag.String("shards", "", "comma-separated backend base URLs (required)")
	replication := flag.Int("replication", 2, "copies per verdict, primary included")
	hedgeDelay := flag.Duration("hedge-delay", 50*time.Millisecond, "wait on the primary before asking a replica")
	healthInterval := flag.Duration("health-interval", 250*time.Millisecond, "/readyz probe period")
	healthFailures := flag.Int("health-failures", 3, "consecutive probe failures that eject a shard")
	replicateInterval := flag.Duration("replicate-interval", 100*time.Millisecond, "verdict replication sweep period")
	retryAfter := flag.Duration("retry-after", 2*time.Second, "backpressure hint on 429/503")
	maxUpload := flag.Int64("max-upload", 64<<20, "upload body cap in bytes")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive failures that open a shard breaker")
	breakerOpenFor := flag.Duration("breaker-open-for", time.Second, "open-breaker rejection window before probing")
	forwardAttempts := flag.Int("forward-attempts", 3, "admission attempts (each walks every live shard)")
	forwardTimeout := flag.Duration("forward-timeout", 5*time.Second, "per-backend-request timeout")
	pprofFlag := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	quiet := flag.Bool("q", false, "quiet")
	const usage = "usage: dpvrouter -shards URL[,URL...] [flags]"
	if code, ok := cli.Parse(0, usage); !ok {
		return code
	}
	if *shards == "" {
		return cli.Usage(usage)
	}
	var urls []string
	for _, s := range strings.Split(*shards, ",") {
		s = strings.TrimSpace(strings.TrimSuffix(s, "/"))
		if s == "" {
			continue
		}
		if !strings.HasPrefix(s, "http://") && !strings.HasPrefix(s, "https://") {
			s = "http://" + s
		}
		urls = append(urls, s)
	}
	if len(urls) == 0 {
		return tool.Fail(exitcode.Usage, "-shards lists no usable URLs")
	}

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	rt, err := cluster.New(cluster.Options{
		Shards:            urls,
		Replication:       *replication,
		HedgeDelay:        *hedgeDelay,
		HealthInterval:    *healthInterval,
		HealthFailures:    *healthFailures,
		ReplicateInterval: *replicateInterval,
		RetryAfter:        *retryAfter,
		MaxUploadBytes:    *maxUpload,
		Breaker:           retry.BreakerConfig{Threshold: *breakerThreshold, OpenFor: *breakerOpenFor},
		Forward:           retry.Policy{MaxAttempts: *forwardAttempts, BaseDelay: 50 * time.Millisecond, PerAttempt: *forwardTimeout},
		Obs:               obs.New(),
		Logf:              logf,
	})
	if err != nil {
		return tool.Fail(exitcode.Internal, err)
	}
	rt.Start()

	srv := &http.Server{Addr: *addr, Handler: rt.Handler(*pprofFlag)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	ctx, stop := cli.Context(0)
	defer stop()
	logf("dpvrouter: listening on %s (%d shards, R=%d)", *addr, len(urls), *replication)

	select {
	case err := <-errc:
		return tool.Fail(exitcode.Internal, err)
	case <-ctx.Done():
	}

	logf("dpvrouter: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		logf("dpvrouter: http shutdown: %v", err)
	}
	rt.Close()
	logf("dpvrouter: stopped")
	return exitcode.OK
}

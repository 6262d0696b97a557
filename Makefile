# Pre-merge gate and developer conveniences. The repo is stdlib-only, so
# `go` is the only tool required.

GO ?= go

# Per-target budget for the fuzz-smoke pass. Long enough to exercise the
# mutator beyond the seed corpus, short enough for a pre-merge gate.
FUZZTIME ?= 10s

.PHONY: all build vet test race check bench bench-smoke bench-gate bench-selftest trace-smoke fuzz-smoke crash-smoke daemon-smoke lrat-smoke cluster-smoke par-smoke clean

# Scratch dir for gate artifacts that must not clobber committed baselines.
SCRATCH ?= .scratch

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race is timeout-bounded so a cancellation or deadlock regression fails the
# gate instead of wedging it.
race:
	$(GO) test -race -timeout 10m ./...

# fuzz-smoke runs each fuzz target briefly. Go allows one -fuzz pattern per
# package invocation, hence one line per target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime $(FUZZTIME) ./internal/proof/
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinaryTrace$$' -fuzztime $(FUZZTIME) ./internal/proof/
	$(GO) test -run '^$$' -fuzz '^FuzzParseCNF$$' -fuzztime $(FUZZTIME) ./internal/cnf/
	$(GO) test -run '^$$' -fuzz '^FuzzParseLRAT$$' -fuzztime $(FUZZTIME) ./internal/lrat/
	$(GO) test -run '^$$' -fuzz '^FuzzParseLRATBinary$$' -fuzztime $(FUZZTIME) ./internal/lrat/
	$(GO) test -run '^$$' -fuzz '^FuzzReadDRUP$$' -fuzztime $(FUZZTIME) ./internal/drat/
	$(GO) test -run '^$$' -fuzz '^FuzzUpload$$' -fuzztime $(FUZZTIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzRouterAdmission$$' -fuzztime $(FUZZTIME) ./internal/cluster/

# crash-smoke is the seeded kill-and-recover loop: the built CLIs are
# SIGKILLed at durable checkpoint appends and resumed until they finish, and
# the recovered artifacts must be byte-identical to an uninterrupted run.
# Journals of retired kinds must be refused. The journal-corruption matrix
# (truncated tail, bit flips, stale fingerprints, version skew) and drat's
# resume-from-every-record and pinned-output goldens ride along, as do dpv's
# pinned outputs (stdout, core, trim and LRAT in both modes).
crash-smoke:
	$(GO) test -run '^TestCrashRecoverMatrix$$|^TestCrashHookFiresAfterDurableAppend$$|^TestExitCodeInterruptedResume$$|^TestResumeIgnoresRetired' -count=1 -v .
	$(GO) test -run '^TestJournalFault' -count=1 ./internal/faults/
	$(GO) test -run '^TestBackwardResume|^TestDratcheckGolden$$' -count=1 ./internal/drat/
	$(GO) test -run '^TestDpvGolden$$' -count=1 ./cmd/dpv/

# daemon-smoke is the service arm of the crash gate: dpvd SIGKILLs itself
# (same DPV_FAULT_CRASH_AFTER_APPENDS hook) with five jobs in flight, is
# restarted on the same store, and every recovered verdict must be
# byte-identical to an uninterrupted checkpointed dpv run; SIGTERM must then
# drain cleanly. The in-process daemon suite (queue/backpressure/tenant
# quotas/fault matrix) rides along.
daemon-smoke:
	$(GO) test -run '^TestDaemonKillAndRecover$$' -count=1 -v .
	$(GO) test -count=1 ./internal/service/

# lrat-smoke is the hinted-proof gate: the LRAT parser/checker unit suite,
# hint emission from the backward checker, for traces and through drat's
# front end (including byte-identical emission across checkpoint resume),
# and the adversarial hint-corruption +
# RUP-differential matrices. The emit -> lratcheck CLI round trip rides in
# crash-smoke; the service surface (proof.lrat persistence, GET /lrat,
# POST /recheck) rides in daemon-smoke.
lrat-smoke:
	$(GO) test -count=1 ./internal/lrat/
	$(GO) test -run 'LRAT' -count=1 ./internal/core/ ./internal/drat/
	$(GO) test -run '^TestLRAT|^TestApplyHints' -count=1 ./internal/faults/

# cluster-smoke is the multi-node arm of the gate: three dpvd shards behind
# one dpvrouter (R=2), six jobs admitted back to back, then SIGKILL the
# shard that owns most of them. Zero admitted jobs may be lost, every
# surviving verdict must be byte-identical to an uninterrupted single-node
# dpv run, and a replica offered a verdict with one flipped hint digit must
# answer a typed 422 and never ack. The in-process cluster suite (ring,
# hedged reads, breakers, failover, router fault matrix) rides along.
cluster-smoke:
	$(GO) test -run '^TestClusterKillShard$$' -count=1 -v .
	$(GO) test -count=1 ./internal/cluster/ ./internal/retry/

# par-smoke is the dependency-aware scheduling gate: the work-stealing
# scheduler's unit suite and the LRAT checker's DAG-vs-chunk-vs-sequential
# differential under the race detector, and the CLI round trip (dpv -sched
# dag, the sequential check plus a hinted DAG recheck, byte-compared with a
# sequential run; lratcheck under both schedules).
par-smoke:
	$(GO) test -race -count=1 ./internal/sched/
	$(GO) test -race -run '^TestCheckDAG|^TestReplayer|^TestBuildDAG' -count=1 ./internal/lrat/
	$(GO) test -run '^TestParSmoke$$' -count=1 -v .

# bench-smoke replays small pigeonhole/random proofs through every BCP
# engine (propagations/sec, watcher-visits per check, and the
# incremental-vs-scratch ratios). Quick suite, written to scratch — the
# committed BENCH_bcp.json baseline is only ever refreshed deliberately,
# with `go run ./cmd/bcpbench -iters 3 -out BENCH_bcp.json`.
bench-smoke:
	@mkdir -p $(SCRATCH)
	$(GO) run ./cmd/bcpbench -quick -iters 2 -out $(SCRATCH)/BENCH_bcp.json

# bench-gate is the perf-regression gate: a fresh quick benchmark run is
# diffed against the committed full-suite baseline. Deterministic per-check
# work (watcher visits / check) is gated per instance at 15%; wall-clock
# throughput (props/sec) only on the suite aggregate, at twice the
# tolerance and above a wall-time noise floor, so timer noise cannot fail
# the gate.
bench-gate:
	@mkdir -p $(SCRATCH)
	$(GO) run ./cmd/bcpbench -quick -iters 3 -out $(SCRATCH)/BENCH_fresh.json
	$(GO) run ./cmd/benchdiff -tol 0.15 BENCH_bcp.json $(SCRATCH)/BENCH_fresh.json
	$(GO) run ./cmd/bcpbench -lrat -quick -iters 3 -out $(SCRATCH)/BENCH_lrat_fresh.json
	$(GO) run ./cmd/benchdiff -lrat -tol 0.15 BENCH_lrat.json $(SCRATCH)/BENCH_lrat_fresh.json
	$(GO) run ./cmd/parbench -quick -iters 3 -o $(SCRATCH)/BENCH_par_fresh.json
	$(GO) run ./cmd/benchdiff -par -tol 0.15 BENCH_par.json $(SCRATCH)/BENCH_par_fresh.json

# bench-selftest builds and self-tests the benchmark (perfbench/, its own
# module): `go test ./...` at the root skips nested modules, so without it
# an API change that breaks the benchmark's build would pass the gate.
bench-selftest:
	cd perfbench && $(GO) test -count=1 ./...

# trace-smoke emits a flight recording from a real verification, parses it
# back and validates the span tree (see trace_roundtrip_test.go), then
# measures recorder overhead over the bench suite. The design budget is <3%
# (per-Refute emission is ~100ns, see BenchmarkCounterPair), but suite
# wall-clock on a shared machine is ±5% noise even with paired-median
# sampling — so the gate enforces 10%: loose enough that timer noise cannot
# fail it, tight enough to catch an accidental per-propagation emission
# (which measures at +50% or worse).
trace-smoke:
	$(GO) test -run '^TestTraceRoundtrip' -count=1 .
	$(GO) run ./cmd/bcpbench -trace-overhead -iters 5 -overhead-budget 10

# check is the pre-merge gate: vet, a full build, the test suite under the
# race detector, a short fuzz pass over the untrusted-input parsers and the
# admission gates (daemon and router), the kill-and-recover crash loops
# (CLI, daemon, and cluster kill-a-shard), the hinted-proof (LRAT) gate,
# the dependency-aware scheduling gate, the trace roundtrip + overhead
# smoke, the benchmark perf-regression gate (BCP engines, hinted re-check
# throughput, and the chunk-vs-DAG schedule), and the benchmark's
# self-test. Run it before every merge; CI and reviewers assume it is green.
check: vet build race fuzz-smoke crash-smoke daemon-smoke lrat-smoke cluster-smoke par-smoke trace-smoke bench-gate bench-selftest

# bench compiles and smoke-runs every benchmark once (not a measurement run).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

clean:
	$(GO) clean ./...
	rm -rf bin

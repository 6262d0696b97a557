# Pre-merge gate and developer conveniences. The repo is stdlib-only, so
# `go` is the only tool required.

GO ?= go

# Per-target budget for the fuzz-smoke pass. Long enough to exercise the
# mutator beyond the seed corpus, short enough for a pre-merge gate.
FUZZTIME ?= 10s

.PHONY: all build fmt vet test race check run-patterns bench bench-selftest trace-smoke fuzz-smoke crash-smoke daemon-smoke lrat-smoke cluster-smoke par-smoke clean

all: build

build:
	$(GO) build ./...

# fmt fails when any Go file is not gofmt-formatted, listing the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# perfbench is a nested module, so `go vet ./...` at the root skips it.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

# race is timeout-bounded so a cancellation or deadlock regression fails the
# gate instead of wedging it.
race:
	$(GO) test -race -timeout 10m ./...

# fuzz-smoke runs each fuzz target briefly. Go allows one -fuzz pattern per
# package invocation, hence one line per target. -fuzzminimizetime 100x caps
# the minimization of each new input (and of a crasher) at 100 runs; at Go's
# default of 60 s the coordinator can spend the whole window minimizing and
# execute nothing after the first seconds.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/proof/
	$(GO) test -run '^$$' -fuzz '^FuzzParseCNF$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/cnf/
	$(GO) test -run '^$$' -fuzz '^FuzzParseLRAT$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/lrat/
	$(GO) test -run '^$$' -fuzz '^FuzzParseLRATBinary$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/lrat/
	$(GO) test -run '^$$' -fuzz '^FuzzRecorderRender$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/lrat/
	$(GO) test -run '^$$' -fuzz '^FuzzReadDRUP$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/drat/
	$(GO) test -run '^$$' -fuzz '^FuzzUpload$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzRouterAdmission$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/cluster/

# crash-smoke is the seeded kill-and-recover loop: the built CLIs are
# SIGKILLed at durable checkpoint appends and resumed until they finish, and
# the recovered artifacts must be byte-identical to an uninterrupted run.
# Journals of the retired append-only format and payloads of retired
# versions must be refused, as must a record that does not fit the run (dpv
# and dratcheck alike). The journal-corruption matrix (truncation, bit
# flips, stale fingerprints, version skew: each a full run, none tolerated),
# core's resume-from-every-record differential
# (core-first and input order) and drat's resume-from-every-record,
# trace-length and pinned-output goldens ride along, as do dpv's pinned outputs (stdout, core,
# trim and LRAT in both modes, with and without hint recording). So do the
# epoch reset's equality test against a fresh engine (internal/bcp) and the
# bound on what the checkpoint grid allocates over an unchecked verify.
crash-smoke:
	$(GO) test -run '^TestCrashRecoverMatrix$$|^TestCrashHookFiresAfterDurableAppend$$|^TestExitCodeInterruptedResume$$|^TestResumeIgnoresRetired|^TestResumeRefusesUnfitRecord$$' -count=1 -v .
	$(GO) test -run '^TestJournalFault' -count=1 ./internal/faults/
	$(GO) test -run '^TestDifferentialCheckpointResume$$|^TestDecodeCheckpointRejects|^TestResumeRefusesHintedCheckpointWithoutHints$$|^TestCheckpointedVerifyAllocatesLikeUnchecked$$' -count=1 ./internal/core/
	$(GO) test -run '^TestResetMatchesFreshEngine$$' -count=1 ./internal/bcp/
	$(GO) test -run '^TestBackwardResume|^TestTraceLen$$|^TestDratcheckGolden$$' -count=1 ./internal/drat/
	$(GO) test -run '^TestDpvGolden$$' -count=1 ./cmd/dpv/

# daemon-smoke is the service arm of the crash gate: dpvd SIGKILLs itself
# (same DPV_FAULT_CRASH_AFTER_APPENDS hook) with five jobs in flight, is
# restarted on the same store, and every recovered verdict must be
# byte-identical to an uninterrupted checkpointed dpv run; SIGTERM must then
# drain cleanly. The in-process daemon suite (queue/backpressure/tenant
# quotas/fault matrix/resume decision) rides along.
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
# scheduler's unit suite and the LRAT checker's DAG-vs-sequential
# differential under the race detector, and the CLI round trip (dpv -sched
# dag, the sequential check plus a hinted DAG recheck, byte-compared with a
# sequential run; dpv -sched chunk's verdict; lratcheck -par 4).
par-smoke:
	$(GO) test -race -count=1 ./internal/sched/
	$(GO) test -race -run '^TestCheckDAG|^TestHintDAG|^TestStepReplay|^TestBuildDAG' -count=1 ./internal/lrat/
	$(GO) test -run '^TestParSmoke$$' -count=1 -v .

# run-patterns fails when an alternative of any -run pattern in this file
# matches no test (under `go test -list`) in the packages its line names, so
# a renamed or deleted test cannot silently drop out of a gate.
run-patterns:
	GO=$(GO) sh scripts/check-run-patterns.sh Makefile

# bench-selftest builds and self-tests the benchmark (perfbench/, its own
# module): `go test ./...` at the root skips nested modules, so without it
# an API change that breaks the benchmark's build would pass the gate.
bench-selftest:
	cd perfbench && $(GO) test -count=1 ./...

# trace-smoke emits a flight recording from a real verification, parses it
# back and validates the span tree (see trace_roundtrip_test.go), then pins
# the recorder's exact event and drop counts on nine check-marked runs
# (TestWorkGolden): the per-Refute emission gives 2*tested+9 events, so an
# accidental per-propagation emission changes the count on every instance.
# Wall-clock overhead is reported by perfbench (trace.overhead_pct), not
# gated.
trace-smoke:
	$(GO) test -run '^TestTraceRoundtrip' -count=1 .
	$(GO) test -run '^TestWorkGolden$$' -count=1 -v ./internal/bench/

# check is the pre-merge gate: gofmt, vet, a full build, the test suite
# under the race detector (which includes TestWorkGolden, the exact goldens
# for the engines' work counters, hint counts and hint-DAG shape), a short
# fuzz pass
# over the untrusted-input parsers, the admission gates (daemon and
# router) and the hint recorder's renderers, the kill-and-recover crash loops (CLI, daemon, and cluster
# kill-a-shard), the hinted-proof (LRAT) gate, the dependency-aware
# scheduling gate, the trace roundtrip and event-count smoke, the check
# that every -run pattern above still names tests, and the benchmark's
# self-test. It gates no wall-clock figure; timing is measured
# by perfbench (perfbench/run.sh). Run it before every merge; CI and
# reviewers assume it is green.
check: fmt vet build race fuzz-smoke crash-smoke daemon-smoke lrat-smoke cluster-smoke par-smoke trace-smoke run-patterns bench-selftest

# bench compiles and smoke-runs every benchmark once (not a measurement run).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

clean:
	$(GO) clean ./...
	rm -rf bin

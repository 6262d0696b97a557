// Command perfbench is the repository's benchmark. It drives the verifier
// stack in-process, through the public entry points of cnf, proof, bcp,
// core, lrat, sched, journal and service, on one of three seeded workloads:
//
//   - cli-rup: dpv's default path, one input after another on one goroutine;
//   - lrat-recheck: lratcheck's and POST /recheck's hinted replay;
//   - dpvd-mixed: an in-process dpvd under a closed loop of one client per
//     CPU, with real journal fsyncs and store commits.
//
// Every verdict is checked against an answer known without the verifier. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it records the run (git
// SHA, CPU count, GOMAXPROCS, Go version, inputs and sample counts). Run it
// from the repository root through its build script:
//
//	bash perfbench/run.sh --workload cli-rup --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation: set-up
// time, CPU time per verdict, proof clauses per CPU second and allocation per
// verdict, plus, in the record line, the wall-clock latencies and throughput
// (see endToEnd for why the bounded metrics are CPU time).
// --trace 1 alternates untraced and traced work: the traced part passes an
// obs.Registry into the program, wraps the daemon's store and journal sink,
// records the benchmark's own spans per call into each layer, and reports
// the per-layer metrics plus the tracing overhead. Its spans are written as
// a Chrome trace under .bench_build/perfbench. BENCHMARK.json at the
// repository root lists both metric sets.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs/trace"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// perLayer lists every per-layer metric and its unit. Times and counts are
// per verdict unless the name says otherwise; a layer that does no work on
// a workload reports 0 there.
var perLayer = [][2]string{
	{"cnf.parse_ms", "ms"},
	{"cnf.parse_mb_per_s", "MB/s"},
	{"proof.parse_ms", "ms"},
	{"proof.parse_mb_per_s", "MB/s"},
	{"bcp.build_ms", "ms"},
	{"bcp.propagations", "count"},
	{"bcp.watcher_visits", "count"},
	{"bcp.visits_per_check", "count"},
	{"bcp.props_per_s", "1/s"},
	{"core.verify_ms", "ms"},
	{"core.check_loop_ms", "ms"},
	{"core.extract_ms", "ms"},
	{"core.tested_frac", "ratio"},
	{"core.checkpoints", "count"},
	{"core.epoch_rebuild_ms", "ms"},
	{"core.hint_record_ms", "ms"},
	{"lrat.proof_ms", "ms"},
	{"lrat.write_ms", "ms"},
	{"lrat.parse_ms", "ms"},
	{"lrat.parse_mb_per_s", "MB/s"},
	{"lrat.check_ms", "ms"},
	{"lrat.check_dag_ms", "ms"},
	{"lrat.hints_scanned", "count"},
	{"lrat.hints_per_s", "1/s"},
	{"sched.tasks", "count"},
	{"sched.steals", "count"},
	{"sched.dag_speedup", "ratio"},
	{"journal.appends", "count"},
	{"journal.append_ms_p50", "ms"},
	{"journal.append_ms_total", "ms"},
	{"service.store_create_ms", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.lrat_store_ms", "ms"},
	{"service.result_commit_ms", "ms"},
	{"service.recheck_ms_p50", "ms"},
	{"service.status_polls_per_job", "count"},
	{"service.rejected_queue_full", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// config is one run's settings. The flags set the first four; short and
// flip exist for the self-test.
type config struct {
	workload string
	seed     int64
	window   time.Duration // the measured window
	trace    bool
	workDir  string // the daemon's stores and the span file live here
	short    bool   // tiny inputs
	flip     string // input whose expected verdict is inverted
}

func (c config) spansPath() string {
	return filepath.Join(c.workDir, fmt.Sprintf("spans-%s-seed%d.json", c.workload, c.seed))
}

// expected returns the verdict an input must reach: its known answer, or
// the opposite for the input named by flip.
func (c config) expected(name, want string) string {
	if name != c.flip {
		return want
	}
	if want == "verified" {
		return "rejected"
	}
	return "verified"
}

// outcome is what a workload run reports.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	wrong     []string
	metrics   map[string]metric
	detail    map[string]any
}

func newOutcome() *outcome {
	return &outcome{correct: true, detail: map[string]any{}}
}

// verdict records one attempted verdict and checks it.
func (o *outcome) verdict(name, want, got string) {
	o.attempted++
	if got != want {
		o.correct = false
		if len(o.wrong) < 10 {
			o.wrong = append(o.wrong, fmt.Sprintf("%s: got %q, want %q", name, got, want))
		}
	}
}

// layers accumulates a traced run's per-layer quantities: raw sums under
// "sum." keys, finished metrics under their perLayer names.
type layers map[string]float64

func (l layers) add(k string, v float64) {
	if l != nil {
		l[k] += v
	}
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics returns every perLayer metric from l.
func (l layers) metrics() (map[string]metric, error) {
	m := map[string]metric{}
	for _, nu := range perLayer {
		v := l[nu[0]]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s is %v", nu[0], v)
		}
		m[nu[0]] = metric{v, nu[1]}
	}
	return m, nil
}

type memMark struct {
	alloc uint64
	gc    uint32
	cpu   time.Duration // process user plus system time
}

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return memMark{ms.TotalAlloc, ms.NumGC, cpu}
}

// since returns what was used between m and now.
func (m memMark) since(earlier memMark) memMark {
	return memMark{m.alloc - earlier.alloc, m.gc - earlier.gc, m.cpu - earlier.cpu}
}

// addMem adds what was allocated since m to l's runtime sums.
func (l layers) addMem(m memMark) {
	now := readMem()
	l.add("sum.alloc", float64(now.alloc-m.alloc))
	l.add("sum.gc", float64(now.gc-m.gc))
}

// parseLayers finishes the parser and runtime metrics from l's sums.
func (l layers) parseLayers() {
	const mb = 1 << 20
	n := l["sum.parsed"]
	l["cnf.parse_ms"] = div(l["sum.cnf_ms"], n)
	l["cnf.parse_mb_per_s"] = div(l["sum.cnf_bytes"]/mb, l["sum.cnf_ms"]/1000)
	l["proof.parse_ms"] = div(l["sum.proof_ms"], n)
	l["proof.parse_mb_per_s"] = div(l["sum.proof_bytes"]/mb, l["sum.proof_ms"]/1000)
	l["lrat.parse_ms"] = div(l["sum.lrat_parse_ms"], l["sum.lrat_parsed"])
	l["lrat.parse_mb_per_s"] = div(l["sum.lrat_bytes"]/mb, l["sum.lrat_parse_ms"]/1000)
	l["runtime.alloc_mb"] = div(l["sum.alloc"]/mb, l["sum.verdicts"])
	l["runtime.gc_cycles"] = div(l["sum.gc"], l["sum.verdicts"])
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

// setUp runs build setupRuns times, timing each, and keeps the last result.
// Set-up is timed in process CPU time as well as wall time; see endToEnd.
// Every repetition must produce the same inputs (equal digests), which is
// the check that the same seed gives the same inputs. release, when set,
// discards an earlier repetition's result.
func setUp[T any](build func() (T, []byte, error), release func(T)) (T, []setupCost, error) {
	var keep, zero T
	var digest []byte
	var costs []setupCost
	for i := 0; i < setupRuns; i++ {
		runtime.GC() // each set-up starts from a collected heap
		m0, t0 := readMem(), time.Now()
		v, sum, err := build()
		costs = append(costs, setupCost{time.Since(t0), readMem().since(m0).cpu})
		if i > 0 && release != nil {
			release(keep)
		}
		if err != nil {
			return zero, nil, fmt.Errorf("set-up: %w", err)
		}
		if i > 0 && string(sum) != string(digest) {
			if release != nil {
				release(v)
			}
			return zero, nil, fmt.Errorf("set-up %d generated different inputs from the same seed", i+1)
		}
		keep, digest = v, sum
	}
	return keep, costs, nil
}

// finishTraced completes a traced run: the tracing overhead (the traced
// verdicts' geomean of per-kind medians against the interleaved untraced
// ones), the span file and self times, and the per-layer metrics.
func (o *outcome) finishTraced(cfg config, lay layers, rec *trace.Recorder, plain, traced []sample) error {
	_, pm := kindMedians(plain)
	_, tm := kindMedians(traced)
	lay["trace.overhead_pct"] = 100 * (div(geomean(tm), geomean(pm)) - 1)
	lay["sum.verdicts"] = float64(len(traced))
	lay.parseLayers()
	self, err := finishSpans(rec, cfg.spansPath(), lay["sum.verdicts"])
	if err != nil {
		return err
	}
	if o.metrics, err = lay.metrics(); err != nil {
		return err
	}
	o.detail["self_ms_per_verdict"] = self
	o.detail["spans_file"] = cfg.spansPath()
	o.detail["samples"] = map[string]int{"traced_verdicts": len(traced), "untraced_verdicts": len(plain)}
	o.detail["verdict_ms_geomean"] = map[string]float64{"traced": geomean(tm), "untraced": geomean(pm)}
	return nil
}

// environment records where a result was measured.
func environment() map[string]any {
	return map[string]any{
		"git_sha":    gitSHA(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
}

// gitSHA reads the checked-out commit from .git in the working directory;
// a source tree without git metadata yields "unknown".
func gitSHA() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func run(cfg config) (*outcome, error) {
	var o *outcome
	var err error
	switch cfg.workload {
	case "cli-rup":
		o, err = runCLI(cfg)
	case "lrat-recheck":
		o, err = runLRAT(cfg)
	case "dpvd-mixed":
		o, err = runDPVD(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want cli-rup, lrat-recheck or dpvd-mixed)", cfg.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if o.attempted == 0 {
		return nil, fmt.Errorf("%s: no verdict attempted", cfg.workload)
	}
	o.detail["workload"] = cfg.workload
	o.detail["seed"] = cfg.seed
	o.detail["trace"] = cfg.trace
	o.detail["env"] = environment()
	if len(o.wrong) > 0 {
		o.detail["wrong_verdicts"] = o.wrong
	}
	return o, nil
}

func main() {
	var cfg config
	var seconds, traced int
	flag.StringVar(&cfg.workload, "workload", "", "cli-rup, lrat-recheck or dpvd-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traced, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	if seconds < 1 || (traced != 0 && traced != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = traced == 1
	cfg.workDir = filepath.Join(".bench_build", "perfbench")
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %d CPUs, GOMAXPROCS %d: parallel figures such as sched.dag_speedup measure no parallelism\n",
			runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}

	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"perfbench": o.detail}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.correct, o.attempted, o.failed, o.metrics}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !o.correct {
		fmt.Fprintf(os.Stderr, "perfbench: wrong verdicts: %s\n", strings.Join(o.wrong, "; "))
		os.Exit(1)
	}
}

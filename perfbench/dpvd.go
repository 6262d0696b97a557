package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lrat"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/proof"
	"repro/internal/service"
)

// dpvd-mixed inputs: each verifies in well under a second, so admission
// parsing, hint recording, checkpoint epochs, journal and store commits and
// HTTP are a large share of a job. The mix adds the known reject and a
// malformed upload.
var (
	dpvdInputs = []string{"pipe_s5w8", "cnt_w10k80", "fifo8_90", "barrel_b16s3", "php_7_pin40", "php_7-drop"}
	dpvdShort  = []string{"php_5", "barrel_b8s2", "php_5-drop"}
)

const (
	// pollEvery is the client's status-poll interval: short against a job's
	// 50-600 ms, and long enough that polling, whose count grows with wall
	// time, adds little to the CPU time per verdict.
	pollEvery = 20 * time.Millisecond
	// jobDeadline fails an upload whose verdict never arrives.
	jobDeadline = time.Minute
	// checkpointEvery is the daemon's default journal interval, which the
	// A/B probe reproduces.
	checkpointEvery = 1000
	probeReps       = 3
	// minVerdicts extends an untraced window until verdict_ms_p90 has at
	// least ten samples beyond it.
	minVerdicts = 100
)

// upload is one prepared dpvd submission.
type upload struct {
	name, want  string
	body        []byte
	contentType string
}

// runDPVD is the dpvd-mixed workload: an in-process dpvd (service.New and
// Daemon.Handler on httptest) over a DiskStore, with default Workers and
// CheckpointEvery, driven by a closed loop of GOMAXPROCS clients. Each
// client submits the next upload of a seeded mix, polls until the job is
// done and, for a verified job, fetches its LRAT and asks for a recheck.
// A traced run measures an untraced half window, then a traced half window
// on a second daemon, then the A/B probe.
func runDPVD(cfg config) (*outcome, error) {
	names := dpvdInputs
	if cfg.short {
		names = dpvdShort
	}
	type state struct {
		ins  []*input
		plan []*upload
		dm   *daemon
	}
	st, setups, err := setUp(func() (*state, []byte, error) {
		ins, digest, err := makeInputs(names, cfg.seed)
		if err != nil {
			return nil, nil, err
		}
		plan, err := mix(ins, cfg.seed)
		if err != nil {
			return nil, nil, err
		}
		dm, err := startDaemon(cfg.workDir, nil)
		if err != nil {
			return nil, nil, err
		}
		return &state{ins, plan, dm}, digest, nil
	}, func(s *state) {
		if s != nil {
			s.dm.stop()
		}
	})
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.detail["inputs"] = describe(st.ins)
	clients := runtime.GOMAXPROCS(0)
	o.detail["clients"] = clients

	first := cfg.window
	if cfg.trace {
		first /= 2
	}
	runtime.GC()
	m0 := readMem()
	least := minVerdicts
	if cfg.trace {
		least = 0
	}
	plain, wall := closedLoop(st.dm, st.plan, first, least, clients, nil)
	used := readMem().since(m0)
	if err := st.dm.stop(); err != nil {
		return nil, err
	}
	plainSamples := o.collect(cfg, plain)
	if !cfg.trace {
		o.metrics, o.detail["samples"] = endToEnd(plainSamples, wall, used, setups)
		o.detail["recheck_ms_p50"] = rechecksP50(plain)
		return o, nil
	}

	rec := trace.New(spanEvents)
	ls := &lanes{cur: map[string]laneSpan{}}
	dm, err := startDaemon(cfg.workDir, &tracing{rec: rec, lanes: ls})
	if err != nil {
		return nil, err
	}
	lay := layers{}
	mark := readMem()
	traced, _ := closedLoop(dm, st.plan, cfg.window-first, 0, clients, dm.tracing)
	lay.addMem(mark)
	if err := dm.stop(); err != nil {
		return nil, err
	}
	tracedSamples := o.collect(cfg, traced)
	if err := dm.serviceLayers(lay, traced); err != nil {
		return nil, err
	}
	if err := probe(st.ins, lay); err != nil {
		return nil, err
	}
	return o, o.finishTraced(cfg, lay, rec, plainSamples, tracedSamples)
}

// mix prepares the uploads, one per input plus a malformed one, and a
// seeded plan: rounds in which every upload appears once, in shuffled order,
// so every kind keeps the same share of any window.
func mix(ins []*input, seed int64) ([]*upload, error) {
	rng := rand.New(rand.NewSource(seed))
	boundary := fmt.Sprintf("perfbench-%016x", rng.Uint64())
	var ups []*upload
	add := func(name, want string, dimacs, trace []byte) error {
		body, ct, err := uploadBody(dimacs, trace, boundary)
		if err != nil {
			return err
		}
		ups = append(ups, &upload{name: name, want: want, body: body, contentType: ct})
		return nil
	}
	for _, in := range ins {
		if err := add(in.name, in.want, in.dimacs, in.trace); err != nil {
			return nil, err
		}
	}
	if err := add("malformed", "bad_input", malformed(ins[0].dimacs, rng), ins[0].trace); err != nil {
		return nil, err
	}
	var plan []*upload
	for round := 0; round < 512; round++ {
		for _, i := range rng.Perm(len(ups)) {
			plan = append(plan, ups[i])
		}
	}
	return plan, nil
}

// tracing is a traced daemon's instrumentation: the span recorder, each
// client's in-flight upload span (found by tenant), and the timings the
// store and journal wrappers take.
type tracing struct {
	rec     *trace.Recorder
	lanes   *lanes
	reg     *obs.Registry
	store   *storeProbe
	journal *journalProbe
}

// daemon is an in-process dpvd over a DiskStore in a scratch directory.
type daemon struct {
	d   *service.Daemon
	srv *httptest.Server
	dir string
	*tracing
}

func startDaemon(workDir string, tr *tracing) (*daemon, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "dpvd-")
	if err != nil {
		return nil, err
	}
	ds, err := service.NewDiskStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	opt := service.Options{Store: ds}
	if tr != nil {
		tr.reg = obs.New()
		tr.store = &storeProbe{Store: ds, lanes: tr.lanes, jobs: map[string]*jobTimes{}}
		tr.journal = &journalProbe{tk: tr.rec.Track("journal")}
		opt.Store, opt.Obs, opt.SinkWrap = tr.store, tr.reg, tr.journal.wrap
	}
	d, err := service.New(opt)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.Start()
	return &daemon{d: d, srv: httptest.NewServer(d.Handler(false)), dir: dir, tracing: tr}, nil
}

// stop closes the listener (waiting for in-flight requests), drains the
// workers and deletes the store.
func (dm *daemon) stop() error {
	dm.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := dm.d.Drain(ctx)
	if rerr := os.RemoveAll(dm.dir); err == nil {
		err = rerr
	}
	return err
}

// uploadResult is one upload as a client saw it.
type uploadResult struct {
	up      *upload
	s       sample
	got     string
	recheck time.Duration // POST /recheck, verified jobs only
	polls   int
	failed  error  // transport error, 429/503 or an unexpected status
	broken  string // a response that breaks the API contract
}

// closedLoop runs clients closed-loop clients against dm until d has passed
// and at least least uploads have been answered, each client finishing its
// upload in flight, and returns every upload's result with the loop's wall
// time.
func closedLoop(dm *daemon, plan []*upload, d time.Duration, least, clients int, tr *tracing) ([]uploadResult, time.Duration) {
	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: jobDeadline}
	var next, answered atomic.Int64
	results := make([][]uploadResult, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		c := &client{tenant: fmt.Sprintf("client-%d", i), hc: hc, base: dm.srv.URL}
		if tr != nil {
			c.tk, c.lanes = tr.rec.Track(c.tenant), tr.lanes
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d || answered.Load() < int64(least) {
				u := plan[int(next.Add(1)-1)%len(plan)]
				results[i] = append(results[i], c.do(u))
				answered.Add(1)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []uploadResult
	for _, r := range results {
		all = append(all, r...)
	}
	return all, wall
}

// collect checks every upload's verdict, counts failures and returns the
// verdicts' samples.
func (o *outcome) collect(cfg config, results []uploadResult) []sample {
	var out []sample
	for _, r := range results {
		if r.failed != nil {
			o.attempted++
			o.failed++
			if o.failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.up.name, r.failed)
			}
			continue
		}
		o.verdict(r.up.name, cfg.expected(r.up.name, r.up.want), r.got)
		if r.broken != "" {
			o.correct = false
			o.wrong = append(o.wrong, r.up.name+": "+r.broken)
		}
		out = append(out, r.s)
	}
	return out
}

func rechecksP50(results []uploadResult) float64 {
	var xs []float64
	for _, r := range results {
		if r.recheck > 0 {
			xs = append(xs, ms(r.recheck))
		}
	}
	return median(xs)
}

// client is one closed-loop dpvd client; its tenant name identifies its
// in-flight upload to the store wrapper.
type client struct {
	tenant string
	hc     *http.Client
	base   string
	tk     *trace.Track // nil when untraced
	lanes  *lanes
}

// jobStatus is the part of GET /v1/jobs/{id} the client reads.
type jobStatus struct {
	State  string `json:"state"`
	Result *struct {
		Status  string `json:"status"`
		Verdict *struct {
			ProofClauses int `json:"proof_clauses"`
			FailedIndex  int `json:"failed_index"`
		} `json:"verdict"`
	} `json:"result"`
}

func (c *client) send(method, path, contentType string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set("X-Dpv-Tenant", c.tenant)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// do submits u and follows it to its verdict.
func (c *client) do(u *upload) (r uploadResult) {
	r.up = u
	root := c.tk.Begin("verdict:"+u.name, 0)
	defer c.tk.End(root, "verdict:"+u.name)
	if c.lanes != nil {
		c.lanes.set(c.tenant, laneSpan{c.tk, root})
	}
	t0 := time.Now()
	var code int
	var body []byte
	var err error
	admit := timed(c.tk, root, "dpvd.post_job", func() {
		code, body, err = c.send(http.MethodPost, "/v1/jobs", u.contentType, u.body)
	})
	if err != nil {
		r.failed = err
		return r
	}
	if code == http.StatusBadRequest {
		var e struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			r.broken = fmt.Sprintf("400 body: %v", err)
		}
		r.got, r.s = e.Status, sample{kind: u.name, total: admit, admit: admit}
		return r
	}
	if code != http.StatusAccepted {
		r.failed = fmt.Errorf("POST /v1/jobs: status %d: %s", code, bytes.TrimSpace(body))
		return r
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		r.broken = fmt.Sprintf("202 body %q", body)
		return r
	}

	var st jobStatus
	var status []byte
	timed(c.tk, root, "dpvd.wait_verdict", func() {
		for time.Since(t0) < jobDeadline {
			time.Sleep(pollEvery)
			r.polls++
			code, status, err = c.send(http.MethodGet, "/v1/jobs/"+sub.ID, "", nil)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("GET /v1/jobs/{id}: status %d", code)
			}
			if err == nil {
				err = json.Unmarshal(status, &st)
			}
			if err != nil || st.State == "done" {
				return
			}
		}
		err = fmt.Errorf("no verdict within %v", jobDeadline)
	})
	if err != nil {
		r.failed = err
		return r
	}
	total := time.Since(t0)
	if st.Result == nil {
		r.broken = "done without a result"
		return r
	}
	r.got = st.Result.Status
	decided := 0
	if v := st.Result.Verdict; v != nil {
		decided = v.ProofClauses
		if r.got == "rejected" {
			decided -= v.FailedIndex
		}
	}
	r.s = sample{kind: u.name, total: total, admit: admit, clauses: decided}
	if r.got != "verified" {
		return r
	}

	var lratBody, recheck []byte
	timed(c.tk, root, "dpvd.get_lrat", func() {
		code, lratBody, err = c.send(http.MethodGet, "/v1/jobs/"+sub.ID+"/lrat", "", nil)
	})
	if err == nil && (code != http.StatusOK || len(lratBody) == 0) {
		err = fmt.Errorf("GET lrat: status %d, %d bytes", code, len(lratBody))
	}
	if err != nil {
		r.failed = err
		return r
	}
	r.recheck = timed(c.tk, root, "dpvd.post_recheck", func() {
		code, recheck, err = c.send(http.MethodPost, "/v1/jobs/"+sub.ID+"/recheck", "", nil)
	})
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("POST recheck: status %d: %s", code, bytes.TrimSpace(recheck))
	}
	if err != nil {
		r.failed = err
		return r
	}
	if !bytes.Equal(recheck, status) {
		r.broken = "recheck answer differs from the job's status"
	}
	return r
}

// laneSpan is a client's trace lane and its in-flight upload span.
type laneSpan struct {
	tk   *trace.Track
	span uint64
}

type lanes struct {
	mu  sync.Mutex
	cur map[string]laneSpan // by tenant
}

func (l *lanes) set(tenant string, s laneSpan) {
	l.mu.Lock()
	l.cur[tenant] = s
	l.mu.Unlock()
}

func (l *lanes) get(tenant string) laneSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur[tenant]
}

// jobTimes is what the store wrapper saw of one job.
type jobTimes struct {
	lane                   laneSpan
	waitSpan, runSpan      uint64
	created, loaded        time.Time
	create, queueWait, run time.Duration
	lratStore, commit      time.Duration
}

// storeProbe wraps the daemon's store to time its commit points. Create is
// called while the submitting client's upload is in flight, so the tenant
// names the span to hang the job's server-side spans under.
type storeProbe struct {
	service.Store
	lanes *lanes
	mu    sync.Mutex
	jobs  map[string]*jobTimes
}

func (s *storeProbe) job(id string) *jobTimes {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *storeProbe) Create(job *service.Job, f *cnf.Formula, tr *proof.Trace) error {
	lane := s.lanes.get(job.Tenant)
	var err error
	d := timed(lane.tk, lane.span, "service.store_create", func() { err = s.Store.Create(job, f, tr) })
	if err != nil {
		return err
	}
	jt := &jobTimes{lane: lane, created: time.Now(), create: d}
	jt.waitSpan = lane.tk.Begin("service.queue_wait", lane.span)
	s.mu.Lock()
	s.jobs[job.ID] = jt
	s.mu.Unlock()
	return nil
}

func (s *storeProbe) Artifacts(id string) (*cnf.Formula, *proof.Trace, error) {
	if jt := s.job(id); jt != nil {
		jt.lane.tk.End(jt.waitSpan, "service.queue_wait")
		run := jt.lane.tk.Begin("service.run", jt.lane.span)
		now := time.Now()
		s.mu.Lock()
		jt.loaded, jt.queueWait, jt.runSpan = now, now.Sub(jt.created), run
		s.mu.Unlock()
	}
	return s.Store.Artifacts(id)
}

func (s *storeProbe) SetLRAT(id string, b []byte) error {
	jt := s.job(id)
	if jt == nil {
		return s.Store.SetLRAT(id, b)
	}
	var err error
	d := timed(jt.lane.tk, jt.runSpan, "service.lrat_store", func() { err = s.Store.SetLRAT(id, b) })
	s.mu.Lock()
	jt.lratStore = d
	s.mu.Unlock()
	return err
}

func (s *storeProbe) SetResult(id string, jr *service.JobResult) error {
	jt := s.job(id)
	if jt == nil {
		return s.Store.SetResult(id, jr)
	}
	start := time.Now()
	var err error
	d := timed(jt.lane.tk, jt.runSpan, "service.result_commit", func() { err = s.Store.SetResult(id, jr) })
	jt.lane.tk.End(jt.runSpan, "service.run")
	s.mu.Lock()
	jt.commit, jt.run = d, start.Sub(jt.loaded)
	s.mu.Unlock()
	return err
}

// journalProbe times every checkpoint-journal append through SinkWrap.
type journalProbe struct {
	tk      *trace.Track
	mu      sync.Mutex
	appends []float64 // ms
}

func (j *journalProbe) wrap(sink func([]byte) error) func([]byte) error {
	return func(p []byte) error {
		var err error
		d := timed(j.tk, 0, "journal.append", func() { err = sink(p) })
		j.mu.Lock()
		j.appends = append(j.appends, ms(d))
		j.mu.Unlock()
		return err
	}
}

// serviceLayers finishes the metrics the traced daemon's registry, store
// wrapper, journal wrapper and clients measured, per admitted job.
func (dm *daemon) serviceLayers(lay layers, results []uploadResult) error {
	snap := dm.reg.Snapshot()
	rupLayers(snap, lay)
	lay["sum.lrat_dag_ms"] = spanMS(snap.Spans, "lrat-check")
	lay["sum.lrat_dag"] = float64(spanCount(snap.Spans, "lrat-check"))
	lratLayers(snap, lay)

	dm.store.mu.Lock()
	defer dm.store.mu.Unlock()
	jobs := float64(len(dm.store.jobs))
	if jobs == 0 {
		return fmt.Errorf("traced window admitted no job")
	}
	var create, lratStore, commit, stored float64
	var waits, runs []float64
	for _, jt := range dm.store.jobs {
		create += ms(jt.create)
		commit += ms(jt.commit)
		if jt.lratStore > 0 {
			lratStore += ms(jt.lratStore)
			stored++
		}
		waits = append(waits, ms(jt.queueWait))
		runs = append(runs, ms(jt.run))
	}
	lay["service.store_create_ms"] = create / jobs
	lay["service.queue_wait_ms_p50"] = median(waits)
	lay["service.run_ms_p50"] = median(runs)
	lay["service.lrat_store_ms"] = div(lratStore, stored)
	lay["service.result_commit_ms"] = commit / jobs
	lay["service.rejected_queue_full"] = float64(snap.Counters["service.rejected_queue_full"])
	lay["service.recheck_ms_p50"] = rechecksP50(results)
	polls := 0
	for _, r := range results {
		polls += r.polls
	}
	lay["service.status_polls_per_job"] = float64(polls) / jobs

	dm.journal.mu.Lock()
	defer dm.journal.mu.Unlock()
	lay["journal.appends"] = float64(snap.Counters["journal.appends"]) / jobs
	lay["journal.append_ms_p50"] = median(dm.journal.appends)
	sum := 0.0
	for _, a := range dm.journal.appends {
		sum += a
	}
	lay["journal.append_ms_total"] = sum / jobs
	return nil
}

// probe measures, outside the closed loop and on each verified dpvd input,
// what a job does inside the daemon that the benchmark cannot time from
// outside it: the admission parsers; core.Verify with and without hint
// recording and with and without checkpoint epochs (A/B, the median of
// probeReps runs each); rendering the recorded hints; and the recheck's
// parse of them.
func probe(ins []*input, lay layers) error {
	n := 0.0
	for _, in := range ins {
		if in.want != "verified" {
			continue
		}
		var f *cnf.Formula
		var tr *proof.Trace
		var err error
		d := timed(nil, 0, "", func() { f, err = cnf.ParseDimacsLimited(bytes.NewReader(in.dimacs), cnf.DefaultParseLimits()) })
		if err != nil {
			return err
		}
		lay.add("sum.parsed", 1)
		lay.add("sum.cnf_ms", ms(d))
		lay.add("sum.cnf_bytes", float64(len(in.dimacs)))
		d = timed(nil, 0, "", func() { tr, err = proof.ReadLimited(bytes.NewReader(in.trace), proof.DefaultLimits()) })
		if err != nil {
			return err
		}
		lay.add("sum.proof_ms", ms(d))
		lay.add("sum.proof_bytes", float64(len(in.trace)))

		var plain, hinted, epochs []float64
		var rec *lrat.Recorder
		checkpoints := 0
		verify := func(opt core.Options) (float64, error) {
			var res *core.Result
			var err error
			d := timed(nil, 0, "", func() { res, err = core.Verify(f, tr, opt) })
			if err == nil && !res.OK {
				err = fmt.Errorf("%s: probe verify rejected", in.name)
			}
			return ms(d), err
		}
		for r := 0; r < probeReps; r++ {
			t, err := verify(core.Options{})
			if err != nil {
				return err
			}
			plain = append(plain, t)
			rec = new(lrat.Recorder)
			if t, err = verify(core.Options{Hints: rec}); err != nil {
				return err
			}
			hinted = append(hinted, t)
			checkpoints = 0
			sink := func([]byte) error { checkpoints++; return nil }
			if t, err = verify(core.Options{Checkpoint: core.CheckpointConfig{Every: checkpointEvery, Sink: sink}}); err != nil {
				return err
			}
			epochs = append(epochs, t)
		}
		lay.add("sum.hint_record_ms", median(hinted)-median(plain))
		lay.add("sum.epoch_rebuild_ms", median(epochs)-median(plain))
		lay.add("sum.checkpoints", float64(checkpoints))

		var p *lrat.Proof
		d = timed(nil, 0, "", func() { p, err = rec.Proof() })
		if err != nil {
			return err
		}
		lay.add("sum.lrat_proof_ms", ms(d))
		var buf bytes.Buffer
		d = timed(nil, 0, "", func() { err = lrat.Write(&buf, p) })
		if err != nil {
			return err
		}
		lay.add("sum.lrat_write_ms", ms(d))
		d = timed(nil, 0, "", func() { _, err = lrat.ReadLimited(bytes.NewReader(buf.Bytes()), lrat.DefaultLimits()) })
		if err != nil {
			return err
		}
		lay.add("sum.lrat_parsed", 1)
		lay.add("sum.lrat_parse_ms", ms(d))
		lay.add("sum.lrat_bytes", float64(buf.Len()))
		n++
	}
	lay["core.hint_record_ms"] = div(lay["sum.hint_record_ms"], n)
	lay["core.epoch_rebuild_ms"] = div(lay["sum.epoch_rebuild_ms"], n)
	lay["core.checkpoints"] = div(lay["sum.checkpoints"], n)
	lay["lrat.proof_ms"] = div(lay["sum.lrat_proof_ms"], n)
	lay["lrat.write_ms"] = div(lay["sum.lrat_write_ms"], n)
	return nil
}

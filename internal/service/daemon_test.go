package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proof"
)

// encodeProblem renders a formula/trace pair as upload text.
func encodeProblem(t *testing.T, f *cnf.Formula, tr *proof.Trace) (string, string) {
	t.Helper()
	var fb, pb bytes.Buffer
	if err := cnf.WriteDimacs(&fb, f); err != nil {
		t.Fatal(err)
	}
	if err := proof.Write(&pb, tr); err != nil {
		t.Fatal(err)
	}
	return fb.String(), pb.String()
}

// multipartBody builds an upload body from named parts.
func multipartBody(t *testing.T, parts map[string]string) (*bytes.Buffer, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for name, content := range parts {
		w, err := mw.CreateFormFile(name, name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf, mw.FormDataContentType()
}

// newTestDaemon builds, recovers and starts a daemon, and registers a
// drain as cleanup so worker goroutines never outlive the test.
func newTestDaemon(t *testing.T, opt Options) *Daemon {
	t.Helper()
	if opt.Store == nil {
		opt.Store = NewMemStore()
	}
	if opt.Obs == nil {
		opt.Obs = obs.New()
	}
	d, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return d
}

func doRequest(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw
}

func submitRaw(t *testing.T, h http.Handler, body *bytes.Buffer, contentType, tenant string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/jobs", body)
	req.Header.Set("Content-Type", contentType)
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	return doRequest(h, req)
}

func submitProblem(t *testing.T, h http.Handler, f *cnf.Formula, tr *proof.Trace, tenant string) string {
	t.Helper()
	fs, ps := encodeProblem(t, f, tr)
	body, ct := multipartBody(t, map[string]string{"formula": fs, "proof": ps})
	rw := submitRaw(t, h, body, ct, tenant)
	if rw.Code != http.StatusAccepted {
		t.Fatalf("submit = %d %s, want 202", rw.Code, rw.Body.String())
	}
	var resp submitResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.ID
}

// waitDone polls the daemon until the job has a result.
func waitDone(t *testing.T, d *Daemon, id string) *JobResult {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, jr, err := d.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st == StateDone && jr != nil {
			return jr
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}

func waitState(t *testing.T, d *Daemon, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st, _, _ := d.Status(id); st == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
}

func TestDaemonVerifiesEndToEnd(t *testing.T) {
	d := newTestDaemon(t, Options{Workers: 2})
	h := d.Handler(false)
	f, tr := chainProblem(20)
	id := submitProblem(t, h, f, tr, "")

	jr := waitDone(t, d, id)
	if jr.Status != StatusVerified || jr.Code != 0 || jr.Attempts != 1 {
		t.Fatalf("result = %+v, want verified/0/1 attempt", jr)
	}
	if jr.Verdict == nil || jr.Verdict.Verdict != "verified" || jr.Verdict.ProofClauses != tr.Len() {
		t.Fatalf("verdict = %+v", jr.Verdict)
	}
	if len(jr.Core) != f.NumClauses() {
		t.Fatalf("core size = %d, want %d (the whole chain is needed)", len(jr.Core), f.NumClauses())
	}

	// The status endpoint serves the same result.
	rw := doRequest(h, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
	if rw.Code != http.StatusOK || !strings.Contains(rw.Body.String(), `"status":"verified"`) {
		t.Fatalf("GET job = %d %s", rw.Code, rw.Body.String())
	}
	// The core endpoint serves DIMACS equal to the (fully needed) formula.
	rw = doRequest(h, httptest.NewRequest("GET", "/v1/jobs/"+id+"/core", nil))
	var want bytes.Buffer
	if err := cnf.WriteDimacs(&want, f); err != nil {
		t.Fatal(err)
	}
	if rw.Code != http.StatusOK || rw.Body.String() != want.String() {
		t.Fatalf("GET core = %d\n%s\nwant\n%s", rw.Code, rw.Body.String(), want.String())
	}
}

func TestDaemonRejectsBadProof(t *testing.T) {
	d := newTestDaemon(t, Options{})
	h := d.Handler(false)
	// x2 is not implied by the formula {x1}: the proof must be rejected,
	// and rejection is a verdict (200 on GET), not an error.
	mk := func(lits ...int) cnf.Clause {
		c := make(cnf.Clause, len(lits))
		for i, l := range lits {
			c[i] = cnf.FromDimacs(l)
		}
		return c
	}
	f := cnf.NewFormula(2)
	f.Clauses = append(f.Clauses, mk(1))
	tr := proof.New()
	tr.Resolutions = nil
	tr.Clauses = append(tr.Clauses, mk(2), mk(-2))

	id := submitProblem(t, h, f, tr, "")
	jr := waitDone(t, d, id)
	if jr.Status != StatusRejected || jr.Code != 2 {
		t.Fatalf("result = %+v, want rejected/2", jr)
	}
	// Marked-mode checking runs backward, so [-2] at index 1 fails first.
	if jr.Verdict == nil || jr.Verdict.FailedIndex != 1 {
		t.Fatalf("verdict = %+v, want failed_index 1", jr.Verdict)
	}
	// No core for a rejected proof.
	rw := doRequest(h, httptest.NewRequest("GET", "/v1/jobs/"+id+"/core", nil))
	if rw.Code != http.StatusConflict {
		t.Fatalf("GET core of rejected = %d, want 409", rw.Code)
	}
}

func TestDaemonAdmissionGate(t *testing.T) {
	d := newTestDaemon(t, Options{
		FormulaLimits: cnf.ParseLimits{MaxClauses: 8},
	})
	h := d.Handler(false)
	f, tr := chainProblem(5)
	fs, ps := encodeProblem(t, f, tr)
	fBig, trBig := chainProblem(50)
	fsBig, _ := encodeProblem(t, fBig, trBig)
	noTerm := "2 0\n3 0\n" // no final pair, no empty clause

	// says, when set, starts the error message: a reader's error names its
	// part, since the reader's own message does not say which input failed.
	cases := []struct {
		name  string
		parts map[string]string
		code  int
		says  string
	}{
		{"missing proof", map[string]string{"formula": fs}, http.StatusBadRequest, ""},
		{"missing formula", map[string]string{"proof": ps}, http.StatusBadRequest, ""},
		{"unknown part", map[string]string{"formula": fs, "proof": ps, "extra": "x"}, http.StatusBadRequest, ""},
		{"malformed formula", map[string]string{"formula": "p cnf zzz\n", "proof": ps}, http.StatusBadRequest,
			`"formula" part: malformed input: `},
		{"malformed proof", map[string]string{"formula": fs, "proof": "1 zz 0\n"}, http.StatusBadRequest,
			`"proof" part: malformed input: `},
		{"over formula limit", map[string]string{"formula": fsBig, "proof": ps}, http.StatusRequestEntityTooLarge,
			`"formula" part: input exceeds clauses limit 8`},
		{"non-terminating trace", map[string]string{"formula": fs, "proof": noTerm}, http.StatusUnprocessableEntity, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, ct := multipartBody(t, tc.parts)
			rw := submitRaw(t, h, body, ct, "")
			if rw.Code != tc.code {
				t.Fatalf("code = %d %s, want %d", rw.Code, rw.Body.String(), tc.code)
			}
			var er errorResponse
			if err := json.Unmarshal(rw.Body.Bytes(), &er); err != nil || er.Status != StatusBadInput {
				t.Fatalf("body %q does not carry status bad_input", rw.Body.String())
			}
			if !strings.HasPrefix(er.Error, tc.says) {
				t.Fatalf("error %q, want it to start %q", er.Error, tc.says)
			}
		})
	}
	t.Run("wrong content type", func(t *testing.T) {
		rw := submitRaw(t, h, bytes.NewBufferString("junk"), "text/plain", "")
		if rw.Code != http.StatusBadRequest {
			t.Fatalf("code = %d, want 400", rw.Code)
		}
	})

	// Never accept: none of the refused uploads may have left a job behind.
	if inc, _ := d.opt.Store.Incomplete(); len(inc) != 0 {
		t.Fatalf("refused uploads left %d job(s) in the store", len(inc))
	}
	if got := d.opt.Obs.Counter("service.jobs_admitted").Value(); got != 0 {
		t.Fatalf("jobs_admitted = %d, want 0", got)
	}
}

// gatedStore blocks Artifacts until the gate opens, pinning jobs in the
// running state so queue-bound tests are deterministic.
type gatedStore struct {
	Store
	gate chan struct{}
}

func (g *gatedStore) Artifacts(id string) (*cnf.Formula, *proof.Trace, error) {
	<-g.gate
	return g.Store.Artifacts(id)
}

func TestDaemonBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	st := &gatedStore{Store: NewMemStore(), gate: gate}
	d := newTestDaemon(t, Options{Store: st, Workers: 1, QueueCap: 1, RetryAfter: 7 * time.Second})
	t.Cleanup(release) // runs before the drain cleanup (LIFO)
	h := d.Handler(false)
	f, tr := chainProblem(5)

	// Job 1 occupies the only worker; wait until it is off the queue.
	id1 := submitProblem(t, h, f, tr, "")
	waitState(t, d, id1, StateRunning)
	// Job 2 fills the queue.
	id2 := submitProblem(t, h, f, tr, "")
	// Job 3 must get 429 + Retry-After, not buffer without bound.
	fs, ps := encodeProblem(t, f, tr)
	body, ct := multipartBody(t, map[string]string{"formula": fs, "proof": ps})
	rw := submitRaw(t, h, body, ct, "")
	if rw.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d %s, want 429", rw.Code, rw.Body.String())
	}
	// Retry-After is jittered upward from the configured base: [7, ceil(7*1.5)].
	if got, err := strconv.Atoi(rw.Header().Get("Retry-After")); err != nil || got < 7 || got > 11 {
		t.Fatalf("Retry-After = %q, want integer in [7, 11]", rw.Header().Get("Retry-After"))
	}
	// Saturation is visible on readiness, while liveness stays green.
	if rw := doRequest(h, httptest.NewRequest("GET", "/readyz", nil)); rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while saturated = %d, want 503", rw.Code)
	}
	if rw := doRequest(h, httptest.NewRequest("GET", "/healthz", nil)); rw.Code != http.StatusOK {
		t.Fatalf("/healthz while saturated = %d, want 200", rw.Code)
	}

	release()
	for _, id := range []string{id1, id2} {
		if jr := waitDone(t, d, id); jr.Status != StatusVerified {
			t.Fatalf("job %s = %+v after release", id, jr)
		}
	}
	if rw := doRequest(h, httptest.NewRequest("GET", "/readyz", nil)); rw.Code != http.StatusOK {
		t.Fatalf("/readyz after release = %d, want 200", rw.Code)
	}
}

func TestDaemonTenantQuotas(t *testing.T) {
	gate := make(chan struct{})
	st := &gatedStore{Store: NewMemStore(), gate: gate}
	d := newTestDaemon(t, Options{
		Store:    st,
		Workers:  1,
		QueueCap: 16,
		Quotas:   map[string]TenantQuota{"small": {MaxQueued: 1}},
	})
	t.Cleanup(func() { close(gate) })
	h := d.Handler(false)
	f, tr := chainProblem(5)
	fs, ps := encodeProblem(t, f, tr)

	// The first job may be dequeued (leaving the tenant's queue) at any
	// moment, so fill the quota with the *second* while the first runs.
	id1 := submitProblem(t, h, f, tr, "small")
	waitState(t, d, id1, StateRunning)
	submitProblem(t, h, f, tr, "small")

	body, ct := multipartBody(t, map[string]string{"formula": fs, "proof": ps})
	rw := submitRaw(t, h, body, ct, "small")
	if rw.Code != http.StatusTooManyRequests || !strings.Contains(rw.Body.String(), "tenant") {
		t.Fatalf("over-quota submit = %d %s, want tenant 429", rw.Code, rw.Body.String())
	}
	// Another tenant still has room: the quota is per tenant, not global.
	submitProblem(t, h, f, tr, "other")
}

func TestDaemonJobTimeout(t *testing.T) {
	d := newTestDaemon(t, Options{JobTimeout: time.Nanosecond})
	h := d.Handler(false)
	f, tr := chainProblem(50)
	id := submitProblem(t, h, f, tr, "")
	jr := waitDone(t, d, id)
	if jr.Status != StatusTimeout || jr.Code != 4 {
		t.Fatalf("result = %+v, want timeout/4", jr)
	}
}

func TestDaemonBudget(t *testing.T) {
	d := newTestDaemon(t, Options{Budget: core.Budget{MaxPropagations: 10}})
	h := d.Handler(false)
	f, tr := chainProblem(100)
	id := submitProblem(t, h, f, tr, "")
	jr := waitDone(t, d, id)
	if jr.Status != StatusBudget || jr.Code != 5 {
		t.Fatalf("result = %+v, want budget_exhausted/5", jr)
	}
	if !strings.Contains(jr.Error, "budget") {
		t.Fatalf("error %q does not name the budget", jr.Error)
	}
}

// Worker panic isolation: a panic inside the verification path (injected
// through SinkWrap, the same hook dpvd uses for crash-fault injection) must
// cost that job one typed internal_error after a fallback-engine retry —
// never the worker goroutine, never the process.
func TestDaemonWorkerPanicIsolation(t *testing.T) {
	reg := obs.New()
	ds, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d := newTestDaemon(t, Options{
		Store:           ds,
		Workers:         1,
		Obs:             reg,
		CheckpointEvery: 1,
		SinkWrap: func(func([]byte) error) func([]byte) error {
			return func([]byte) error { panic("injected sink panic") }
		},
	})
	h := d.Handler(false)
	f, tr := chainProblem(5)

	id := submitProblem(t, h, f, tr, "")
	jr := waitDone(t, d, id)
	if jr.Status != StatusInternal || jr.Code != 6 {
		t.Fatalf("result = %+v, want internal_error/6", jr)
	}
	if jr.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (primary + fallback engine)", jr.Attempts)
	}
	if !strings.Contains(jr.Error, "panic") {
		t.Fatalf("error %q does not mention the panic", jr.Error)
	}
	if got := reg.Counter("service.worker_panics").Value(); got == 0 {
		t.Fatal("worker_panics counter not incremented")
	}
	// The worker survived: the next job on the same (single) worker still
	// gets a result. (Same panicking sink, so the same typed outcome.)
	id2 := submitProblem(t, h, f, tr, "")
	if jr2 := waitDone(t, d, id2); jr2.Status != StatusInternal {
		t.Fatalf("second job = %+v; worker should have survived to produce it", jr2)
	}
}

func TestDaemonDrainRefusesNewWork(t *testing.T) {
	d := newTestDaemon(t, Options{})
	h := d.Handler(false)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	f, tr := chainProblem(5)
	fs, ps := encodeProblem(t, f, tr)
	body, ct := multipartBody(t, map[string]string{"formula": fs, "proof": ps})
	rw := submitRaw(t, h, body, ct, "")
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", rw.Code)
	}
	if rw.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if err := d.Live(); !errors.Is(err, ErrDraining) {
		t.Fatalf("Live while draining = %v, want ErrDraining", err)
	}
}

// Admission durability: jobs admitted by one daemon process are recovered
// and completed by the next one, in admission order, with Seq continuing.
func TestDaemonRecoverAcrossRestart(t *testing.T) {
	root := t.TempDir()
	ds, err := NewDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	// First incarnation: admit jobs but never start workers — the moral
	// equivalent of a crash right after 202.
	d1, err := New(Options{Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	f, tr := chainProblem(10)
	var ids []string
	for i := 0; i < 3; i++ {
		job, err := d1.Submit("default", f, tr)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}

	// Second incarnation on the same store.
	ds2, err := NewDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	d2 := newTestDaemon(t, Options{Store: ds2})
	// (Recover ran inside newTestDaemon.)
	for _, id := range ids {
		jr := waitDone(t, d2, id)
		if jr.Status != StatusVerified {
			t.Fatalf("recovered job %s = %+v, want verified", id, jr)
		}
	}
	// Seq continues after the admitted jobs rather than colliding.
	job, err := d2.Submit("default", f, tr)
	if err != nil {
		t.Fatal(err)
	}
	if job.Seq != 4 {
		t.Fatalf("post-restart Seq = %d, want 4", job.Seq)
	}
	waitDone(t, d2, job.ID)
}

func TestHandlerPanicIsolated(t *testing.T) {
	d := newTestDaemon(t, Options{})
	// A handler panic must cost one 500, never the process. Easiest panic
	// on demand: a poisoned probe function behind /readyz would change obs;
	// instead mount the middleware over an always-panicking handler.
	h := d.recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rw := doRequest(h, httptest.NewRequest("GET", "/anything", nil))
	if rw.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rw.Code)
	}
	if !strings.Contains(rw.Body.String(), string(StatusInternal)) {
		t.Fatalf("body %q lacks typed status", rw.Body.String())
	}
}

// TestDaemonPercentTrailerRejected: the SATLIB trailer "%\n0\n" ends an
// uploaded formula, so its "0" is not read as an empty clause; a proof
// claiming the empty clause of a satisfiable formula is rejected with or
// without the trailer.
func TestDaemonPercentTrailerRejected(t *testing.T) {
	d := newTestDaemon(t, Options{})
	h := d.Handler(false)
	for _, formula := range []string{"p cnf 2 1\n1 2 0\n", "p cnf 2 1\n1 2 0\n%\n0\n"} {
		body, ct := multipartBody(t, map[string]string{"formula": formula, "proof": "0\n"})
		rw := submitRaw(t, h, body, ct, "")
		if rw.Code != http.StatusAccepted {
			t.Fatalf("%q: submit = %d %s, want 202", formula, rw.Code, rw.Body.String())
		}
		var resp submitResponse
		if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if jr := waitDone(t, d, resp.ID); jr.Status != StatusRejected || jr.Code != 2 {
			t.Errorf("%q: result = %+v, want rejected/2", formula, jr)
		}
	}
}

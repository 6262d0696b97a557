package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cnf"
	"repro/internal/exitcode"
	"repro/internal/lrat"
	"repro/internal/obs"
	"repro/internal/proof"
	"repro/internal/sched"
)

// API shapes. Submission and status responses always carry a "status" (or
// job state) so clients never have to parse prose; errors reuse the Status
// taxonomy where one applies.
type submitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
}

type statusResponse struct {
	ID     string     `json:"id"`
	Tenant string     `json:"tenant,omitempty"`
	State  State      `json:"state"`
	Result *JobResult `json:"result,omitempty"`
}

type errorResponse struct {
	Status Status `json:"status"`
	Error  string `json:"error"`
}

// tenantHeader names the submitting tenant; absent means "default".
const tenantHeader = "X-Dpv-Tenant"

// JobIDHeader carries a caller-minted job ID on POST /v1/jobs — the cluster
// router uses it so the ID (and therefore the owning shard, by consistent
// hash) is fixed before the upload is forwarded. Values failing ValidJobID
// are refused; re-submission of an existing ID is idempotent.
const JobIDHeader = "X-Dpv-Job-Id"

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs              multipart upload (parts "formula", "proof") → 202
//	GET  /v1/jobs/{id}         job state and, when done, its result
//	GET  /v1/jobs/{id}/core    unsat core as DIMACS (verified jobs)
//	GET  /v1/jobs/{id}/lrat    hinted (LRAT) proof of the verification
//	POST /v1/jobs/{id}/recheck re-verify from stored hints — no BCP — and
//	                           answer with the job's verdict JSON, byte-
//	                           identical to GET /v1/jobs/{id}
//
// plus the observability surface (/metrics, /debug/vars, /healthz, /readyz,
// and — when enablePprof — /debug/pprof/) from the daemon's registry.
// Admission backpressure is expressed in status codes: 400/413 for inputs
// the gate refuses, 429 with Retry-After when queue or tenant bounds are
// hit, 503 with Retry-After while draining. Every handler runs under a
// recovery middleware, so a handler panic costs one 500, never the daemon.
func (d *Daemon) Handler(enablePprof bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", d.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", d.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/core", d.handleCore)
	mux.HandleFunc("GET /v1/jobs/{id}/lrat", d.handleLRAT)
	mux.HandleFunc("POST /v1/jobs/{id}/recheck", d.handleRecheck)
	mux.HandleFunc("PUT /v1/replicas/{id}", d.handleReplicaPut)
	mux.Handle("/", d.opt.Obs.Mux(enablePprof, obs.Health{Live: d.Live, Ready: d.Ready}))
	return d.recoverMiddleware(mux)
}

func (d *Daemon) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				// http.ErrAbortHandler is net/http's own "drop this
				// connection" sentinel; re-panic so it keeps its meaning.
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				d.opt.Obs.Counter("service.http_panics").Inc()
				d.opt.Logf("service: http panic on %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				writeError(w, http.StatusInternalServerError, StatusInternal, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := encodeJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(b)
}

func writeError(w http.ResponseWriter, code int, st Status, msg string) {
	writeJSON(w, code, errorResponse{Status: st, Error: msg})
}

// handleSubmit is the admission gate. The upload is streamed part by part
// directly into the limited parsers — the daemon never buffers a body it
// has not already decided to accept, so a hostile 10 GB upload dies at
// MaxUploadBytes/parse limits, not in memory.
func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if d.Draining() {
		d.setRetryAfter(w)
		writeError(w, http.StatusServiceUnavailable, StatusInternal, ErrDraining.Error())
		return
	}
	tenant := r.Header.Get(tenantHeader)
	if tenant == "" {
		tenant = "default"
	}
	suppliedID := r.Header.Get(JobIDHeader)
	if suppliedID != "" && !ValidJobID(suppliedID) {
		writeError(w, http.StatusBadRequest, StatusBadInput, ErrBadJobID.Error())
		return
	}

	var f *cnf.Formula
	var tr *proof.Trace
	if !d.readParts(w, r,
		uploadPart{"formula", func(p io.Reader) (err error) {
			f, err = cnf.ParseDimacsLimited(p, d.opt.FormulaLimits)
			return err
		}},
		uploadPart{"proof", func(p io.Reader) (err error) {
			tr, err = proof.ReadLimited(p, d.opt.ProofLimits)
			return err
		}}) {
		return
	}
	if f == nil || tr == nil {
		writeError(w, http.StatusBadRequest, StatusBadInput, "upload needs both a \"formula\" and a \"proof\" part")
		return
	}
	// The structural check core.Verify would fail with ErrBadTrace is run
	// here instead, so structurally hopeless proofs are refused at the door
	// rather than burning a queue slot to be refused later.
	if tr.Terminates() == proof.TermNone {
		writeError(w, http.StatusUnprocessableEntity, StatusBadInput,
			"trace must end in a final conflicting pair or the empty clause")
		return
	}

	job, err := d.SubmitID(tenant, suppliedID, f, tr)
	switch {
	case err == nil:
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusAccepted, submitResponse{ID: job.ID, State: StateQueued})
	case errors.Is(err, ErrAlreadyAdmitted):
		// Idempotent re-POST of a known ID (a router retrying after a lost
		// response): answer 202 with the job's current state, enqueue
		// nothing. The retry looks exactly like the original success.
		st, _, serr := d.Status(job.ID)
		if serr != nil {
			st = StateQueued
		}
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusAccepted, submitResponse{ID: job.ID, State: st})
	case errors.Is(err, ErrBadJobID):
		writeError(w, http.StatusBadRequest, StatusBadInput, err.Error())
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrTenantBusy):
		d.setRetryAfter(w)
		writeError(w, http.StatusTooManyRequests, StatusInternal, err.Error())
	case errors.Is(err, ErrDraining):
		d.setRetryAfter(w)
		writeError(w, http.StatusServiceUnavailable, StatusInternal, err.Error())
	default:
		// Store trouble (e.g. disk full during admission): retryable.
		d.setRetryAfter(w)
		writeError(w, http.StatusServiceUnavailable, StatusInternal, err.Error())
	}
}

// uploadPart names one part of a multipart upload and reads it.
type uploadPart struct {
	name string
	read func(io.Reader) error
}

// readParts is the multipart half of the upload handlers. It checks the
// content type, caps the body at MaxUploadBytes and streams each part to
// its reader, refusing a part that comes twice or that parts does not name;
// parts lists the names in the order error messages give them. A reader's
// error is prefixed with its part's name. On failure the HTTP error has
// been written and ok is false.
func (d *Daemon) readParts(w http.ResponseWriter, r *http.Request, parts ...uploadPart) (ok bool) {
	quoted := make([]string, len(parts))
	for i, p := range parts {
		quoted[i] = strconv.Quote(p.name)
	}
	mt, params, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil || mt != "multipart/form-data" {
		writeError(w, http.StatusBadRequest, StatusBadInput,
			"content type must be multipart/form-data with parts "+
				strings.Join(quoted[:len(quoted)-1], ", ")+" and "+quoted[len(quoted)-1])
		return false
	}
	boundary := params["boundary"]
	if boundary == "" {
		writeError(w, http.StatusBadRequest, StatusBadInput, "multipart boundary missing")
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, d.opt.MaxUploadBytes)
	mr := multipart.NewReader(r.Body, boundary)
	seen := make([]bool, len(parts))
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			return true
		}
		if err != nil {
			// Includes truncated bodies (a dying client): io.ErrUnexpectedEOF
			// or a malformed closing boundary — typed rejection either way.
			d.writeUploadError(w, fmt.Errorf("multipart body: %w", err))
			return false
		}
		k := slices.IndexFunc(parts, func(p uploadPart) bool { return p.name == part.FormName() })
		if k < 0 {
			writeError(w, http.StatusBadRequest, StatusBadInput,
				fmt.Sprintf("unknown part %q (want %s)", part.FormName(), strings.Join(quoted, ", ")))
			return false
		}
		if seen[k] {
			writeError(w, http.StatusBadRequest, StatusBadInput, fmt.Sprintf("duplicate %s part", quoted[k]))
			return false
		}
		seen[k] = true
		if err := parts[k].read(part); err != nil {
			d.writeUploadError(w, fmt.Errorf("%s part: %w", quoted[k], err))
			return false
		}
	}
}

// setRetryAfter stamps one freshly jittered Retry-After hint.
func (d *Daemon) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(d.retryAfterSeconds()))
}

// writeUploadError classifies an admission parse failure: limit violations
// are 413 (the request entity is the problem), everything else malformed or
// truncated is 400. Both carry status bad_input — the same class a dpv run
// would exit 3 for.
func (d *Daemon) writeUploadError(w http.ResponseWriter, err error) {
	d.opt.Obs.Counter("service.uploads_rejected").Inc()
	var maxBytes *http.MaxBytesError
	if errors.As(err, &maxBytes) || errors.Is(err, cnf.ErrLimit) {
		writeError(w, http.StatusRequestEntityTooLarge, StatusBadInput, err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, StatusBadInput, err.Error())
}

// jobStatus looks up a job for a handler: an unknown job is a 404 and any
// other failure a 500. On failure the HTTP error has been written and ok is
// false.
func (d *Daemon) jobStatus(w http.ResponseWriter, id string) (st State, jr *JobResult, ok bool) {
	st, jr, err := d.Status(id)
	if errors.Is(err, ErrUnknownJob) {
		writeError(w, http.StatusNotFound, StatusBadInput, "unknown job")
		return "", nil, false
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, StatusInternal, err.Error())
		return "", nil, false
	}
	return st, jr, true
}

// verifiedJob is jobStatus for the endpoints that serve what a verified job
// leaves behind (named by what in the refusal): a job without a verdict, or
// with any verdict but verified, is a 409.
func (d *Daemon) verifiedJob(w http.ResponseWriter, id, what string) (jr *JobResult, ok bool) {
	st, jr, ok := d.jobStatus(w, id)
	if !ok {
		return nil, false
	}
	if st != StateDone {
		writeError(w, http.StatusConflict, StatusBadInput, "job has no verdict yet")
		return nil, false
	}
	if jr == nil || jr.Status != StatusVerified || jr.Code != exitcode.OK {
		writeError(w, http.StatusConflict, StatusBadInput, what+" exists only for verified jobs")
		return nil, false
	}
	return jr, true
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if st, jr, ok := d.jobStatus(w, id); ok {
		d.writeStatusResponse(w, id, st, jr)
	}
}

// writeStatusResponse renders the one status/verdict body shape. handleStatus
// and handleRecheck both answer through it, which is what makes the recheck
// contract testable: a recheck's body is byte-identical to a plain GET.
func (d *Daemon) writeStatusResponse(w http.ResponseWriter, id string, st State, jr *JobResult) {
	resp := statusResponse{ID: id, State: st, Result: jr}
	if job, jerr := d.opt.Store.Job(id); jerr == nil {
		resp.Tenant = job.Tenant
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCore serves a verified job's unsat core as DIMACS — the paper's
// by-product, delivered over the wire instead of via dpv -core FILE.
func (d *Daemon) handleCore(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jr, ok := d.verifiedJob(w, id, "core")
	if !ok {
		return
	}
	f, err := d.opt.Store.Formula(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, StatusInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := cnf.WriteDimacs(w, f.Restrict(jr.Core)); err != nil {
		d.opt.Logf("service: job %s: core write: %v", id, err)
	}
}

// verifiedLRAT gates the hinted-proof endpoints: the job must be done and
// verified, and the store must hold its LRAT bytes. On any failure the HTTP
// error has been written and ok is false.
func (d *Daemon) verifiedLRAT(w http.ResponseWriter, id string) (b []byte, jr *JobResult, ok bool) {
	jr, ok = d.verifiedJob(w, id, "hinted proof")
	if !ok {
		return nil, nil, false
	}
	b, err := d.opt.Store.LRAT(id)
	if err != nil && !errors.Is(err, ErrUnknownJob) {
		writeError(w, http.StatusInternalServerError, StatusInternal, err.Error())
		return nil, nil, false
	}
	if len(b) == 0 {
		// Verified, but the hint write was degraded (or the job predates
		// hint recording): the verdict stands, the cheap recheck does not.
		writeError(w, http.StatusConflict, StatusInternal, "no hinted proof recorded for this job")
		return nil, nil, false
	}
	return b, jr, true
}

// handleLRAT serves the hinted (LRAT) proof recorded when the job verified —
// the artifact lratcheck, or any independent LRAT checker, accepts without
// running unit propagation.
func (d *Daemon) handleLRAT(w http.ResponseWriter, r *http.Request) {
	b, _, ok := d.verifiedLRAT(w, r.PathValue("id"))
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(b)
}

// handleRecheck re-derives trust in a completed job's verdict from its
// stored hints: a unit replay over the named antecedents only, no BCP. On
// success it answers with the job's verdict JSON, byte-identical to
// GET /v1/jobs/{id} — the recheck changes nothing, it re-confirms. A replay
// failure means the stored artifacts are corrupt and is reported as an
// internal error, never a changed verdict.
func (d *Daemon) handleRecheck(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b, jr, ok := d.verifiedLRAT(w, id)
	if !ok {
		return
	}
	f, err := d.opt.Store.Formula(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, StatusInternal, err.Error())
		return
	}
	cres, err := lrat.Validate(f, b, cnf.ParseLimits{}, lrat.Options{
		Workers: runtime.GOMAXPROCS(0), Strategy: sched.StrategyDAG,
		Ctx: r.Context(), Obs: d.opt.Obs,
	})
	var ve *lrat.ValidationError
	if errors.As(err, &ve) {
		d.opt.Obs.Counter("service.rechecks_failed").Inc()
		writeError(w, http.StatusInternalServerError, StatusInternal,
			fmt.Sprintf("stored hinted proof failed re-verification: %v", ve))
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, StatusInternal,
			fmt.Sprintf("recheck interrupted: %v", err))
		return
	}
	d.opt.Obs.Counter("service.rechecks").Inc()
	w.Header().Set("X-Dpv-Recheck", "lrat")
	w.Header().Set("X-Dpv-Recheck-Hints", strconv.FormatInt(cres.HintsScanned, 10))
	d.writeStatusResponse(w, id, StateDone, jr)
}

// replicaResponse acknowledges an accepted replica.
type replicaResponse struct {
	ID    string `json:"id"`
	State string `json:"state"` // always "replicated"
	Steps int    `json:"validated_steps"`
}

// handleReplicaPut accepts a verdict copy from a replicating router:
// multipart parts "formula" (DIMACS), "verdict" (JobResult JSON) and "lrat"
// (the hinted proof). The verdict is NOT trusted: before anything is stored
// or acked, the hinted proof is re-verified against the formula with the
// propagation-free checker (lrat.Validate). A proof that fails — one
// flipped hint byte is enough — is rejected with a typed 422 replica_rejected
// error and leaves no trace in the store; the wire can corrupt a copy, but
// never launder it into a served verdict. Acceptance is idempotent: the
// same ID may be re-PUT (a retrying router), and the copy is atomically
// replaced.
func (d *Daemon) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !ValidJobID(id) {
		writeError(w, http.StatusBadRequest, StatusBadInput, ErrBadJobID.Error())
		return
	}
	if d.Draining() {
		d.setRetryAfter(w)
		writeError(w, http.StatusServiceUnavailable, StatusInternal, ErrDraining.Error())
		return
	}
	tenant := r.Header.Get(tenantHeader)
	if tenant == "" {
		tenant = "default"
	}

	var f *cnf.Formula
	var verdictJSON, lratBytes []byte
	if !d.readParts(w, r,
		uploadPart{"formula", func(p io.Reader) (err error) {
			f, err = cnf.ParseDimacsLimited(p, d.opt.FormulaLimits)
			return err
		}},
		uploadPart{"verdict", func(p io.Reader) (err error) {
			verdictJSON, err = io.ReadAll(io.LimitReader(p, 1<<20))
			return err
		}},
		uploadPart{"lrat", func(p io.Reader) (err error) {
			lratBytes, err = io.ReadAll(p)
			return err
		}}) {
		return
	}
	if f == nil || verdictJSON == nil || len(lratBytes) == 0 {
		writeError(w, http.StatusBadRequest, StatusBadInput,
			"replica needs \"formula\", \"verdict\" and \"lrat\" parts")
		return
	}
	var jr JobResult
	if err := json.Unmarshal(verdictJSON, &jr); err != nil {
		writeError(w, http.StatusBadRequest, StatusBadInput, fmt.Sprintf("verdict part: %v", err))
		return
	}
	if jr.Status != StatusVerified || jr.Code != exitcode.OK || jr.Verdict == nil {
		// Only verified verdicts carry hints that make them re-checkable;
		// anything else is recomputed, not replicated.
		writeError(w, http.StatusUnprocessableEntity, StatusReplicaRejected,
			"only verified verdicts are replicated")
		return
	}

	// The integrity gate: re-derive the refutation from the formula and the
	// hinted proof before acking anything.
	cres, err := lrat.Validate(f, lratBytes, cnf.ParseLimits{}, lrat.Options{Ctx: r.Context(), Obs: d.opt.Obs})
	var ve *lrat.ValidationError
	if errors.As(err, &ve) {
		d.opt.Obs.Counter("service.replicas_rejected").Inc()
		d.opt.Logf("service: replica %s rejected: %v", id, ve)
		writeError(w, http.StatusUnprocessableEntity, StatusReplicaRejected, ve.Error())
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, StatusInternal,
			fmt.Sprintf("replica validation interrupted: %v", err))
		return
	}

	job := &Job{
		ID:         id,
		Tenant:     tenant,
		Replica:    true,
		NumVars:    f.NumVars,
		NumClauses: f.NumClauses(),
	}
	if err := d.opt.Store.PutReplica(job, f, &jr, lratBytes); err != nil {
		d.setRetryAfter(w)
		writeError(w, http.StatusServiceUnavailable, StatusInternal, err.Error())
		return
	}
	d.opt.Obs.Counter("service.replicas_accepted").Inc()
	writeJSON(w, http.StatusOK, replicaResponse{ID: id, State: "replicated", Steps: cres.Additions})
}

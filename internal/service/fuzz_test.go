package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/cnf"
)

// fuzzBoundary is the fixed multipart boundary for the fuzz corpus, so the
// body bytes alone determine the request.
const fuzzBoundary = "dpvd-fuzz-boundary"

var (
	fuzzOnce   sync.Once
	fuzzDaemon *Daemon
	fuzzHandle http.Handler
)

// fuzzSetup builds one small shared daemon for all fuzz iterations. Tight
// limits keep accepted jobs cheap; the queue filling up (429) is itself an
// accepted outcome.
func fuzzSetup(tb testing.TB) http.Handler {
	fuzzOnce.Do(func() {
		d, err := New(Options{
			Store:          NewMemStore(),
			Workers:        2,
			QueueCap:       32,
			FormulaLimits:  cnf.ParseLimits{MaxVars: 64, MaxClauses: 256, MaxClauseLen: 64, MaxBytes: 1 << 16},
			ProofLimits:    cnf.ParseLimits{MaxClauses: 256, MaxClauseLen: 64, MaxVars: 64, MaxBytes: 1 << 16},
			MaxUploadBytes: 1 << 16,
		})
		if err != nil {
			tb.Fatal(err)
		}
		d.Start()
		fuzzDaemon = d
		fuzzHandle = d.Handler(false)
	})
	return fuzzHandle
}

func fuzzSeedBody(parts map[string]string) []byte {
	var buf bytes.Buffer
	for name, content := range parts {
		buf.WriteString("--" + fuzzBoundary + "\r\n")
		buf.WriteString("Content-Disposition: form-data; name=\"" + name + "\"; filename=\"" + name + "\"\r\n")
		buf.WriteString("Content-Type: application/octet-stream\r\n\r\n")
		buf.WriteString(content)
		buf.WriteString("\r\n")
	}
	buf.WriteString("--" + fuzzBoundary + "--\r\n")
	return buf.Bytes()
}

// FuzzUpload throws arbitrary multipart bodies at the admission gate. The
// contract under any input: a typed HTTP status from the expected set, no
// panic, and the daemon still serving afterwards.
func FuzzUpload(f *testing.F) {
	formula := "p cnf 3 4\n1 0\n-1 2 0\n-2 3 0\n-3 0\n"
	trace := "2 0\n3 0\n-3 0\n"
	f.Add(fuzzSeedBody(map[string]string{"formula": formula, "proof": trace}))
	f.Add(fuzzSeedBody(map[string]string{"formula": formula}))
	f.Add(fuzzSeedBody(map[string]string{"proof": trace}))
	f.Add(fuzzSeedBody(map[string]string{"formula": "p cnf 1 1\n1 0\n", "proof": "0\n"}))
	f.Add(fuzzSeedBody(map[string]string{"formula": formula, "proof": "1 2 3\n"}))
	f.Add(fuzzSeedBody(map[string]string{"formula": "garbage", "proof": "garbage"}))
	full := fuzzSeedBody(map[string]string{"formula": formula, "proof": trace})
	f.Add(full[:len(full)/2]) // truncated mid-stream
	f.Add([]byte(""))
	f.Add([]byte("--" + fuzzBoundary + "--\r\n"))

	allowed := map[int]bool{
		http.StatusAccepted:              true,
		http.StatusBadRequest:            true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusUnprocessableEntity:   true,
		http.StatusTooManyRequests:       true,
		http.StatusServiceUnavailable:    true,
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		h := fuzzSetup(t)
		req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "multipart/form-data; boundary="+fuzzBoundary)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if !allowed[rw.Code] {
			t.Fatalf("upload produced status %d (body %q)", rw.Code, rw.Body.String())
		}
		// Still alive.
		lw := httptest.NewRecorder()
		h.ServeHTTP(lw, httptest.NewRequest("GET", "/healthz", nil))
		if lw.Code != http.StatusOK {
			t.Fatalf("daemon unhealthy after upload: %d", lw.Code)
		}
	})
}

package proof

import (
	"io"

	"repro/internal/obs"
)

// ReadObserved is Read with IO metering: bytes read, parse wall time and
// the resulting clause rate land in the registry (proof.read.* counters, a
// "proof-read" span) — §6's 257 MB 7pipe trace is exactly the scale where
// parse time stops being ignorable. A nil registry falls back to plain
// Read.
func ReadObserved(r io.Reader, reg *obs.Registry) (*Trace, error) {
	if reg == nil {
		return Read(r)
	}
	span := reg.StartSpan("proof-read")
	cr := obs.CountingReader(r, reg.Counter("proof.read.bytes"))
	t, err := Read(cr)
	d := span.End()
	reg.Counter("proof.read.ns").Add(int64(d))
	if t != nil {
		reg.Counter("proof.read.clauses").Add(int64(t.Len()))
		if secs := d.Seconds(); secs > 0 {
			reg.Gauge("proof.read.clauses_per_sec").Set(int64(float64(t.Len()) / secs))
		}
	}
	return t, err
}

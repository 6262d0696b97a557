package lrat_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lrat"
	"repro/internal/solver"
)

// recordedPHP8 is PHP(8) with the LRAT proof its backward check records,
// in both encodings, built once for the benchmarks below.
var recordedPHP8 = sync.OnceValues(func() (*recorded, error) {
	inst := gen.PHP(8)
	_, tr, _, _, err := solver.Solve(inst.F.Clone(), solver.Options{})
	if err != nil {
		return nil, err
	}
	var rec lrat.Recorder
	if _, err := core.Verify(inst.F, tr, core.Options{Mode: core.ModeCheckMarked, Hints: &rec}); err != nil {
		return nil, err
	}
	r := &recorded{f: inst.F}
	if r.text, err = rec.Text(); err != nil {
		return nil, err
	}
	var bin bytes.Buffer
	if err := rec.WriteBinary(&bin); err != nil {
		return nil, err
	}
	r.bin = bin.Bytes()
	r.p, err = lrat.ReadBinary(bytes.NewReader(r.bin))
	return r, err
})

type recorded struct {
	f         *cnf.Formula
	p         *lrat.Proof
	text, bin []byte
}

// BenchmarkReadLRAT reads PHP(8)'s recorded LRAT proof, about 2 MB of text
// or 0.8 MB of binary, as lratcheck and POST /recheck do. Reproduce the
// parse-layer figures with
//
//	go test -run '^$' -bench ReadLRAT ./internal/lrat/
func BenchmarkReadLRAT(b *testing.B) {
	r, err := recordedPHP8()
	if err != nil {
		b.Fatal(err)
	}
	for _, enc := range []struct {
		name string
		data []byte
		read func(io.Reader, cnf.ParseLimits) (*lrat.Proof, error)
	}{
		{"text", r.text, lrat.ReadLimited},
		{"binary", r.bin, lrat.ReadBinaryLimited},
	} {
		b.Run(enc.name, func(b *testing.B) {
			b.SetBytes(int64(len(enc.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := enc.read(bytes.NewReader(enc.data), cnf.DefaultParseLimits()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckRecorded is the sequential hinted check of the same proof:
// the ID resolution of the structural pass, then the replay.
func BenchmarkCheckRecorded(b *testing.B) {
	r, err := recordedPHP8()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := lrat.Check(r.f, r.p, lrat.Options{})
		if err != nil || !res.OK {
			b.Fatalf("check: %v %+v", err, res)
		}
	}
}

package cnf_test

import (
	"bytes"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/solver"
)

// BenchmarkParseDIMACS parses PHP(8) together with the conflict clauses its
// solver derives (the paper's F*, about 1 MB of DIMACS), so nearly every
// line is a clause line for the tokenizer's whole-line path. Reproduce the
// parse-layer figure with
//
//	go test -run '^$' -bench ParseDIMACS ./internal/cnf/
func BenchmarkParseDIMACS(b *testing.B) {
	inst := gen.PHP(8)
	st, tr, _, _, err := solver.Solve(inst.F.Clone(), solver.Options{})
	if err != nil || st != solver.Unsat {
		b.Fatalf("solving %s: %v %v", inst.Name, st, err)
	}
	f := inst.F.Clone()
	for _, c := range tr.Clauses {
		f.AddClause(c)
	}
	var buf bytes.Buffer
	if err := cnf.WriteDimacs(&buf, f); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cnf.ParseDimacsLimited(bytes.NewReader(data), cnf.DefaultParseLimits()); err != nil {
			b.Fatal(err)
		}
	}
}

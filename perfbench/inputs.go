package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math/rand"
	"mime/multipart"
	"strings"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lrat"
	"repro/internal/proof"
	"repro/internal/solver"
)

// generators names every instance a workload uses; php_5, barrel_b8s2 and
// fifo4_8 are the self-test's tiny inputs. A name with the suffix "-drop"
// (PHP only) is the known-reject input built from that instance.
var generators = map[string]func() gen.Instance{
	"php_5":         func() gen.Instance { return gen.PHP(5) },
	"php_7":         func() gen.Instance { return gen.PHP(7) },
	"php_8":         func() gen.Instance { return gen.PHP(8) },
	"php_7_pin40":   func() gen.Instance { return gen.PHPPinned(7, 40) },
	"php_8_pin40":   func() gen.Instance { return gen.PHPPinned(8, 40) },
	"longmult_w8b7": func() gen.Instance { return gen.Longmult(8, 7) },
	"ctl_w8r4":      func() gen.Instance { return gen.Control(8, 4) },
	"fifo8_90":      func() gen.Instance { return gen.Fifo(8, 90) },
	"fifo4_8":       func() gen.Instance { return gen.Fifo(4, 8) },
	"pipe_s5w8":     func() gen.Instance { return gen.Pipe(5, 8) },
	"cnt_w10k80":    func() gen.Instance { return gen.Counter(10, 80) },
	"barrel_b16s3":  func() gen.Instance { return gen.Barrel(16, 3) },
	"barrel_b8s2":   func() gen.Instance { return gen.Barrel(8, 2) },
}

// solverOptions is the repository's standard configuration for producing
// conflict-clause proofs (BerkMin heuristic, hybrid learning).
var solverOptions = solver.Options{
	Learn:        solver.LearnHybrid,
	Heuristic:    solver.HeurBerkMin,
	MaxConflicts: 5_000_000,
}

// input is one generated input: the bytes the program under test reads and
// the verdict it must reach.
type input struct {
	name   string
	want   string // "verified", "rejected" or "bad_input"
	dimacs []byte
	trace  []byte // text conflict-clause trace
	// full is the formula the trace refutes. For a reject input it is the
	// served formula plus the dropped clause appended last, so the served
	// formula's clause IDs are those of full.
	full *cnf.Formula
	tr   *proof.Trace
}

// makeInputs generates, solves and serializes the named inputs from seed.
//
// Each instance is solved once in its canonical form; the seed then renames
// its variables and reorders its clauses, and renames the proof to match.
// The bytes differ from seed to seed while the proof keeps its shape, so the
// work a verdict costs barely depends on the seed. A reject input is PHP(n)
// with the pigeon clause of a seeded pigeon p dropped, served with the PHP(n)
// proof whose pigeons 0 and p are swapped: every choice of p is the same
// input up to renaming. The returned digest covers every byte produced.
func makeInputs(names []string, seed int64) ([]*input, []byte, error) {
	proofs := map[string]*proof.Trace{}
	digest := sha256.New()
	var out []*input
	for _, name := range names {
		base, drop := strings.CutSuffix(name, "-drop")
		mk, ok := generators[base]
		if !ok {
			return nil, nil, fmt.Errorf("unknown instance %q", base)
		}
		inst := mk()
		tr := proofs[base]
		if tr == nil {
			var err error
			if tr, err = solveUnsat(inst.F); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", base, err)
			}
			proofs[base] = tr
		}
		h := fnv.New64a()
		h.Write([]byte(name))
		rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))

		f := inst.F
		var dropped cnf.Clause
		want := "verified"
		if drop {
			var n int
			if _, err := fmt.Sscanf(base, "php_%d", &n); err != nil || base != fmt.Sprintf("php_%d", n) {
				return nil, nil, fmt.Errorf("%s: only plain PHP instances have reject inputs", name)
			}
			p := rng.Intn(n + 1)
			tr = renameTrace(tr, swapPigeons(n, p, f.NumVars))
			keep := make([]int, 0, len(f.Clauses)-1)
			for i := range f.Clauses {
				if i != p { // clause p is pigeon p's "sits in some hole"
					keep = append(keep, i)
				}
			}
			dropped = f.Clauses[p]
			f = f.Restrict(keep)
			want = "rejected"
		}
		if int(tr.MaxVar()) >= f.NumVars {
			return nil, nil, fmt.Errorf("%s: proof uses variables beyond the formula", name)
		}
		perm := make([]cnf.Var, f.NumVars)
		for i, v := range rng.Perm(f.NumVars) {
			perm[i] = cnf.Var(v)
		}
		g, err := cnf.PermuteVars(f, perm)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		rng.Shuffle(len(g.Clauses), func(i, j int) { g.Clauses[i], g.Clauses[j] = g.Clauses[j], g.Clauses[i] })
		in := &input{name: name, want: want, full: g, tr: renameTrace(tr, perm)}
		if drop {
			// The known answer: the formula without the clause is
			// satisfiable, so no proof of it may be accepted.
			st, _, model, _, err := solver.Solve(g, solverOptions)
			if err != nil || st != solver.Sat || !g.Eval(model) {
				return nil, nil, fmt.Errorf("%s: formula with the clause dropped is not satisfiable (%v, %v)", name, st, err)
			}
			full := g.Clone()
			full.AddClause(renameClause(dropped, perm))
			in.full = full
		}
		var db, tb bytes.Buffer
		if err := cnf.WriteDimacs(&db, g); err != nil {
			return nil, nil, err
		}
		if err := proof.Write(&tb, in.tr); err != nil {
			return nil, nil, err
		}
		in.dimacs, in.trace = db.Bytes(), tb.Bytes()
		digest.Write(in.dimacs)
		digest.Write(in.trace)
		out = append(out, in)
	}
	return out, digest.Sum(nil), nil
}

// solveUnsat returns the solver's conflict-clause proof of f.
func solveUnsat(f *cnf.Formula) (*proof.Trace, error) {
	st, tr, _, _, err := solver.Solve(f, solverOptions)
	if err != nil {
		return nil, err
	}
	if st != solver.Unsat {
		return nil, fmt.Errorf("solver returned %v, want UNSAT", st)
	}
	return tr, nil
}

// swapPigeons is the renaming of PHP(n) (variable p*n+h: pigeon p in hole h)
// that exchanges pigeons 0 and p; it maps PHP(n) onto itself.
func swapPigeons(n, p, numVars int) []cnf.Var {
	perm := make([]cnf.Var, numVars)
	for v := range perm {
		perm[v] = cnf.Var(v)
	}
	for h := 0; h < n; h++ {
		perm[h], perm[p*n+h] = cnf.Var(p*n+h), cnf.Var(h)
	}
	return perm
}

func renameClause(c cnf.Clause, perm []cnf.Var) cnf.Clause {
	out := make(cnf.Clause, len(c))
	for i, l := range c {
		out[i] = cnf.NewLit(perm[l.Var()], l.IsNeg())
	}
	return out
}

func renameTrace(t *proof.Trace, perm []cnf.Var) *proof.Trace {
	out := &proof.Trace{Clauses: make([]cnf.Clause, len(t.Clauses))}
	for i, c := range t.Clauses {
		out.Clauses[i] = renameClause(c, perm)
	}
	if t.Resolutions != nil {
		out.Resolutions = append([]int64(nil), t.Resolutions...)
	}
	return out
}

// hinted is an input's LRAT proof, recorded by core.Verify and serialized in
// both formats.
type hinted struct {
	bin, text []byte
	proofTime time.Duration // lrat.Recorder.Proof
	writeTime time.Duration // lrat.WriteBinary plus lrat.Write
}

// recordLRAT records in's hints over its full formula. For a reject input
// the hints name the dropped clause, which the served formula lacks.
func recordLRAT(in *input) (*hinted, error) {
	var rec lrat.Recorder
	res, err := core.Verify(in.full, in.tr, core.Options{Hints: &rec})
	if err != nil {
		return nil, fmt.Errorf("%s: recording run: %w", in.name, err)
	}
	if !res.OK {
		return nil, fmt.Errorf("%s: recording run rejected clause %d", in.name, res.FailedIndex)
	}
	h := &hinted{}
	t0 := time.Now()
	p, err := rec.Proof()
	h.proofTime = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s: recorded proof: %w", in.name, err)
	}
	var bb, tb bytes.Buffer
	t0 = time.Now()
	if err := lrat.WriteBinary(&bb, p); err != nil {
		return nil, err
	}
	if err := lrat.Write(&tb, p); err != nil {
		return nil, err
	}
	h.writeTime = time.Since(t0)
	h.bin, h.text = bb.Bytes(), tb.Bytes()
	return h, nil
}

// uploadBody renders a dpvd submission: a multipart body with the parts
// "formula" and "proof", and its content type.
func uploadBody(dimacs, trace []byte, boundary string) ([]byte, string, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.SetBoundary(boundary); err != nil {
		return nil, "", err
	}
	for _, part := range []struct {
		name, file string
		data       []byte
	}{{"formula", "formula.cnf", dimacs}, {"proof", "proof.trace", trace}} {
		w, err := mw.CreateFormFile(part.name, part.file)
		if err != nil {
			return nil, "", err
		}
		if _, err := w.Write(part.data); err != nil {
			return nil, "", err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), mw.FormDataContentType(), nil
}

// malformed returns dimacs with one seeded clause line replaced by a line
// holding a non-numeric token, which every DIMACS parser must refuse.
func malformed(dimacs []byte, rng *rand.Rand) []byte {
	lines := strings.Split(string(dimacs), "\n")
	var clauseLines []int
	for i, l := range lines {
		if l != "" && l[0] != 'c' && l[0] != 'p' {
			clauseLines = append(clauseLines, i)
		}
	}
	lines[clauseLines[rng.Intn(len(clauseLines))]] = "1 -2 x3 0"
	return []byte(strings.Join(lines, "\n"))
}

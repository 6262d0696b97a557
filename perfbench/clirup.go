package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/proof"
)

// cli-rup inputs. ctl_w8r4 tests about a quarter of its proof and spends a
// fifth of its time parsing a large trace; php_8_pin40's 56k-clause formula
// makes the clause-DB build and root fixpoint heavy; the -drop input is the
// known reject.
var (
	cliInputs = []string{"php_8", "longmult_w8b7", "ctl_w8r4", "php_8_pin40", "php_8-drop"}
	cliShort  = []string{"php_5", "barrel_b8s2", "php_5-drop"}
)

// runCLI is the cli-rup workload: dpv's default path (check-marked mode,
// watched engine, no hints, no checkpoints) over every input in turn, in
// whole passes until the window has passed. A traced run alternates
// untraced and traced passes.
func runCLI(cfg config) (*outcome, error) {
	names := cliInputs
	if cfg.short {
		names = cliShort
	}
	ins, setups, err := setUp(func() ([]*input, []byte, error) { return makeInputs(names, cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.detail["inputs"] = describe(ins)

	var rec *trace.Recorder
	var reg *obs.Registry
	lay := layers{}
	if cfg.trace {
		rec, reg = trace.New(spanEvents), obs.New()
	}
	tk := rec.Track("main")
	var plain, traced []sample
	runtime.GC()
	m0 := readMem()
	start := time.Now()
	for pass := 0; ; pass++ {
		tracing := cfg.trace && pass%2 == 1
		mark := readMem()
		for _, in := range ins {
			var s sample
			var got string
			if tracing {
				s, got, err = verifyRUP(in, tk, reg, lay)
			} else {
				s, got, err = verifyRUP(in, nil, nil, nil)
			}
			if err != nil {
				return nil, err
			}
			o.verdict(in.name, cfg.expected(in.name, in.want), got)
			if tracing {
				traced = append(traced, s)
			} else {
				plain = append(plain, s)
			}
		}
		if tracing {
			lay.addMem(mark)
		}
		if time.Since(start) >= cfg.window && (!cfg.trace || pass >= 1) {
			break
		}
	}
	wall := time.Since(start)
	if !cfg.trace {
		o.metrics, o.detail["samples"] = endToEnd(plain, wall, readMem().since(m0), setups)
		return o, nil
	}
	rupLayers(reg.Snapshot(), lay)
	return o, o.finishTraced(cfg, lay, rec, plain, traced)
}

// verifyRUP takes one input from bytes to verdict the way dpv does:
// cnf.ParseDimacsLimited, proof.ReadLimited, core.Verify and, for a verified
// proof, core.CoreFormula.
func verifyRUP(in *input, tk *trace.Track, reg *obs.Registry, lay layers) (sample, string, error) {
	root := tk.Begin("verdict:"+in.name, 0)
	defer tk.End(root, "verdict:"+in.name)
	t0 := time.Now()
	var f *cnf.Formula
	var tr *proof.Trace
	var res *core.Result
	var err error
	dCNF := timed(tk, root, "cnf.parse", func() {
		f, err = cnf.ParseDimacsLimited(bytes.NewReader(in.dimacs), cnf.DefaultParseLimits())
	})
	if err != nil {
		return sample{}, "", fmt.Errorf("%s: formula: %w", in.name, err)
	}
	dProof := timed(tk, root, "proof.parse", func() {
		tr, err = proof.ReadLimited(bytes.NewReader(in.trace), proof.DefaultLimits())
	})
	if err != nil {
		return sample{}, "", fmt.Errorf("%s: proof: %w", in.name, err)
	}
	timed(tk, root, "core.verify", func() { res, err = core.Verify(f, tr, core.Options{Obs: reg}) })
	if err != nil {
		return sample{}, "", fmt.Errorf("%s: verify: %w", in.name, err)
	}
	got, decided := "rejected", res.ProofClauses-res.FailedIndex
	if res.OK {
		got, decided = "verified", res.ProofClauses
		var coreF *cnf.Formula
		timed(tk, root, "core.core_formula", func() { coreF = core.CoreFormula(f, res) })
		if coreF.NumClauses() == 0 {
			return sample{}, "", fmt.Errorf("%s: verified with an empty core", in.name)
		}
	}
	total := time.Since(t0)
	lay.add("sum.parsed", 1)
	lay.add("sum.cnf_ms", ms(dCNF))
	lay.add("sum.cnf_bytes", float64(len(in.dimacs)))
	lay.add("sum.proof_ms", ms(dProof))
	lay.add("sum.proof_bytes", float64(len(in.trace)))
	return sample{kind: in.name, total: total, admit: dCNF + dProof, clauses: decided}, got, nil
}

// rupLayers finishes the bcp and core metrics from the spans and counters
// core.Verify published into a registry, per verify run.
func rupLayers(snap *obs.Snapshot, lay layers) {
	n := float64(spanCount(snap.Spans, "verify"))
	c := snap.Counters
	props, visits := float64(c["bcp.propagations"]), float64(c["bcp.watcher_visits"])
	checked := float64(c["verify.checked"])
	checkMS := spanMS(snap.Spans, "check-loop")
	lay["bcp.build_ms"] = div(spanMS(snap.Spans, "build-db"), n)
	lay["bcp.propagations"] = div(props, n)
	lay["bcp.watcher_visits"] = div(visits, n)
	lay["bcp.visits_per_check"] = div(visits, checked)
	lay["bcp.props_per_s"] = div(props, checkMS/1000)
	lay["core.verify_ms"] = div(spanMS(snap.Spans, "verify"), n)
	lay["core.check_loop_ms"] = div(checkMS, n)
	lay["core.extract_ms"] = div(spanMS(snap.Spans, "core-extract"), n)
	lay["core.tested_frac"] = div(checked, checked+float64(c["verify.skipped"]+c["verify.tautologies"]))
}

// describe records each input's name, expected verdict and sizes.
func describe(ins []*input) []map[string]any {
	var out []map[string]any
	for _, in := range ins {
		out = append(out, map[string]any{
			"name": in.name, "want": in.want,
			"dimacs_bytes": len(in.dimacs), "trace_bytes": len(in.trace),
			"proof_clauses": in.tr.Len(),
		})
	}
	return out
}

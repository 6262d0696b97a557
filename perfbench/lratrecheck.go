package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cnf"
	"repro/internal/lrat"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/sched"
)

// lrat-recheck inputs: cli-rup's proofs plus fifo8_90. The reject input's
// hints name the clause its formula lacks; it is built from php_7 rather
// than php_8 because recording its hints is set-up that every run repeats.
var (
	lratInputs = []string{"php_8", "longmult_w8b7", "ctl_w8r4", "php_8_pin40", "fifo8_90", "php_7-drop"}
	lratShort  = []string{"php_5", "fifo4_8", "php_5-drop"}
)

type lratInput struct {
	*input
	*hinted
}

// runLRAT is the lrat-recheck workload: every input is checked twice per
// pass, once as lratcheck does by default (binary LRAT, sequential) and once
// as POST /recheck does (the stored text LRAT, StrategyDAG at GOMAXPROCS
// workers). Recording the hints is set-up.
func runLRAT(cfg config) (*outcome, error) {
	names := lratInputs
	if cfg.short {
		names = lratShort
	}
	ins, setups, err := setUp(func() ([]lratInput, []byte, error) {
		ins, digest, err := makeInputs(names, cfg.seed)
		if err != nil {
			return nil, nil, err
		}
		sum := sha256.New()
		sum.Write(digest)
		out := make([]lratInput, len(ins))
		for i, in := range ins {
			h, err := recordLRAT(in)
			if err != nil {
				return nil, nil, err
			}
			sum.Write(h.bin)
			sum.Write(h.text)
			out[i] = lratInput{in, h}
		}
		return out, sum.Sum(nil), nil
	}, nil)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	var plainIns []*input
	for _, in := range ins {
		plainIns = append(plainIns, in.input)
	}
	o.detail["inputs"] = describe(plainIns)
	workers := runtime.GOMAXPROCS(0)

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
			for _, dag := range []bool{false, true} {
				var s sample
				var got string
				if tracing {
					s, got, err = checkLRAT(in, dag, workers, tk, reg, lay)
				} else {
					s, got, err = checkLRAT(in, dag, workers, nil, nil, nil)
				}
				if err != nil {
					return nil, err
				}
				o.verdict(s.kind, cfg.expected(in.name, in.want), got)
				if tracing {
					traced = append(traced, s)
				} else {
					plain = append(plain, s)
				}
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
	for _, in := range ins {
		lay.add("sum.lrat_proof_ms", ms(in.proofTime))
		lay.add("sum.lrat_write_ms", ms(in.writeTime))
	}
	lay["lrat.proof_ms"] = div(lay["sum.lrat_proof_ms"], float64(len(ins)))
	lay["lrat.write_ms"] = div(lay["sum.lrat_write_ms"], float64(len(ins)))
	lratLayers(reg.Snapshot(), lay)
	o.detail["cpus_for_dag"] = workers
	return o, o.finishTraced(cfg, lay, rec, plain, traced)
}

// checkLRAT takes one input from bytes to verdict: cnf.ParseDimacsLimited,
// then lrat.ReadBinaryLimited and a sequential lrat.Check, or (dag)
// lrat.ReadLimited and a StrategyDAG check at workers.
func checkLRAT(in lratInput, dag bool, workers int, tk *trace.Track, reg *obs.Registry, lay layers) (sample, string, error) {
	kind := in.name + "/bin-seq"
	data, read := in.bin, lrat.ReadBinaryLimited
	opt := lrat.Options{Obs: reg}
	if dag {
		kind = in.name + "/text-dag"
		data, read = in.text, lrat.ReadLimited
		opt.Workers, opt.Strategy = workers, sched.StrategyDAG
	}
	root := tk.Begin("verdict:"+kind, 0)
	defer tk.End(root, "verdict:"+kind)
	t0 := time.Now()
	var f *cnf.Formula
	var p *lrat.Proof
	var res *lrat.Result
	var err error
	dCNF := timed(tk, root, "cnf.parse", func() {
		f, err = cnf.ParseDimacsLimited(bytes.NewReader(in.dimacs), cnf.DefaultParseLimits())
	})
	if err != nil {
		return sample{}, "", fmt.Errorf("%s: formula: %w", kind, err)
	}
	dParse := timed(tk, root, "lrat.parse", func() { p, err = read(bytes.NewReader(data), lrat.DefaultLimits()) })
	if err != nil {
		return sample{}, "", fmt.Errorf("%s: lrat: %w", kind, err)
	}
	dCheck := timed(tk, root, "lrat.check", func() { res, err = lrat.Check(f, p, opt) })
	if err != nil {
		return sample{}, "", fmt.Errorf("%s: check: %w", kind, err)
	}
	got, decided := "rejected", max(res.FailedStep+1, 0)
	if res.OK && res.Refuted {
		got, decided = "verified", len(p.Steps)
	}
	total := time.Since(t0)
	lay.add("sum.parsed", 1)
	lay.add("sum.cnf_ms", ms(dCNF))
	lay.add("sum.cnf_bytes", float64(len(in.dimacs)))
	lay.add("sum.lrat_parsed", 1)
	lay.add("sum.lrat_parse_ms", ms(dParse))
	lay.add("sum.lrat_bytes", float64(len(data)))
	if dag {
		lay.add("sum.lrat_dag", 1)
		lay.add("sum.lrat_dag_ms", ms(dCheck))
	} else {
		lay.add("sum.lrat_seq", 1)
		lay.add("sum.lrat_seq_ms", ms(dCheck))
	}
	return sample{kind: kind, total: total, admit: dCNF + dParse, clauses: decided}, got, nil
}

// lratLayers finishes the lrat and sched metrics: check times per
// sequential and per DAG check from l's sums, hint and scheduler counts
// from the registry.
func lratLayers(snap *obs.Snapshot, lay layers) {
	c := snap.Counters
	seq, dag := lay["sum.lrat_seq"], lay["sum.lrat_dag"]
	hints := float64(c["lrat.hints_scanned"])
	lay["lrat.check_ms"] = div(lay["sum.lrat_seq_ms"], seq)
	lay["lrat.check_dag_ms"] = div(lay["sum.lrat_dag_ms"], dag)
	lay["lrat.hints_scanned"] = div(hints, seq+dag)
	lay["lrat.hints_per_s"] = div(hints, (lay["sum.lrat_seq_ms"]+lay["sum.lrat_dag_ms"])/1000)
	lay["sched.tasks"] = div(float64(c["sched.tasks"]), dag)
	lay["sched.steals"] = div(float64(c["sched.steals"]), dag)
	// Both strategies check the same inputs equally often, so the ratio of
	// their summed check times is the DAG speed-up on this host's CPUs.
	lay["sched.dag_speedup"] = div(lay["sum.lrat_seq_ms"], lay["sum.lrat_dag_ms"])
}

package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lrat"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/sched"
	"repro/internal/solver"
)

// TestWorkGolden pins the verifier's work counters on nine solver-recorded
// proofs. Every counter below is a deterministic function of the instance
// and the code (the solver, the engines, the marking walk, hint emission and
// the flight recorder), so the test demands exact equality: any drift is a
// real change in how much work a verdict costs, never timer noise.
//
// Per instance it replays the backward check-marked scan (ModeCheckMarked)
// through each BCP engine:
//
//   - watched         — incremental: persistent root trail, flat arena,
//     blocking literals (the default engine)
//   - watched-scratch — same algorithm and layout, but the root fixpoint
//     is re-derived on every Refute
//   - counting        — the naive occurrence-counter propagator
//
// The pinned/chained instances carry the root-implied prefixes the
// persistent trail targets; the plain ones bound its overhead. The watched
// run also carries a flight recorder, whose event count pins the per-Refute
// emission (2·tested+9 events: a per-propagation emission would add one per
// propagation), and a hint recorder, whose LRAT proof must pass lrat.Check
// and whose hint DAG shape is pinned as lrat.BuildDAG reports it.
//
// When a change moves a counter on purpose, the failure message prints the
// measured row next to the pinned one; update the row in the same change
// and say why.
func TestWorkGolden(t *testing.T) {
	insts := workInstances()
	if len(insts) != len(workGoldens) {
		t.Fatalf("%d instances, %d golden rows", len(insts), len(workGoldens))
	}
	for i, inst := range insts {
		want := workGoldens[i]
		t.Run(inst.Name, func(t *testing.T) {
			if inst.Name != want.name {
				t.Fatalf("instance %d is %s, golden row is %s", i, inst.Name, want.name)
			}
			if got := measureWork(t, inst); got != want {
				t.Errorf("work counters changed\n got: %#v\nwant: %#v", got, want)
			}
		})
	}
}

// workInstances are the golden's instances: pigeonhole and random UNSAT,
// each plain and with a root-implied prefix.
func workInstances() []gen.Instance {
	return []gen.Instance{
		gen.PHPPinned(5, 20),
		gen.RandUnsatChained(3, 40, 1500),
		gen.PHP(5),
		gen.RandUnsat(9, 50),
		gen.PHPPinned(6, 48),
		gen.PHPPinned(7, 40),
		gen.RandUnsatChained(9, 60, 4000),
		gen.PHP(7),
		gen.RandUnsat(17, 60),
	}
}

// engineWork is one engine's work on one check-marked verification.
type engineWork struct {
	tested int   // proof clauses refuted (Table 1 "Tested")
	core   int   // original clauses in the core (Table 1 "Core")
	props  int64 // bcp.propagations
	visits int64 // bcp.watcher_visits; 0 for counting
	occ    int64 // bcp.occ_touches; 0 for the watched engines
}

// workGolden is one instance's pinned counters.
type workGolden struct {
	name    string
	engines [3]engineWork // in workEngines order

	// The flight recorder on the watched run.
	events  int
	dropped int64

	// The LRAT recorded by the watched run, as lrat.Check scans it.
	additions, deletions int
	hints                int64

	// lrat.BuildDAG(p).Stats(), with AvgOut (Edges/Tasks) left zero.
	dag sched.Stats
}

var workEngines = [3]core.EngineKind{
	core.EngineWatched,
	core.EngineWatchedScratch,
	core.EngineCounting,
}

// measureWork solves inst once and replays the proof through every engine.
func measureWork(t *testing.T, inst gen.Instance) workGolden {
	t.Helper()
	st, tr, _, _, err := solver.Solve(inst.F, DefaultSolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st != solver.Unsat {
		t.Fatalf("solver returned %v", st)
	}
	got := workGolden{name: inst.Name}
	rec := trace.New(trace.DefaultTrackEvents)
	var hints lrat.Recorder
	for i, kind := range workEngines {
		reg := obs.New()
		opts := core.Options{Mode: core.ModeCheckMarked, Engine: kind, Obs: reg}
		if kind == core.EngineWatched {
			reg.SetTracer(rec)
			opts.Hints = &hints
		}
		res, err := core.Verify(inst.F, tr, opts)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !res.OK {
			t.Fatalf("%v: proof rejected at %d", kind, res.FailedIndex)
		}
		snap := reg.Snapshot()
		got.engines[i] = engineWork{
			tested: res.Tested,
			core:   len(res.Core),
			props:  snap.Counters["bcp.propagations"],
			visits: snap.Counters["bcp.watcher_visits"],
			occ:    snap.Counters["bcp.occ_touches"],
		}
	}
	got.events = len(rec.Events())
	got.dropped = rec.Dropped()

	lp, err := hints.Proof()
	if err != nil {
		t.Fatalf("recorded proof: %v", err)
	}
	cres, err := lrat.Check(inst.F, lp, lrat.Options{})
	if err != nil {
		t.Fatalf("hinted check: %v", err)
	}
	if !cres.OK {
		t.Fatalf("hinted check rejected step %d: %s", cres.FailedStep, cres.Reason)
	}
	got.additions, got.deletions, got.hints = cres.Additions, cres.Deletions, cres.HintsScanned
	got.dag = lrat.BuildDAG(lp).Stats()
	got.dag.AvgOut = 0
	return got
}

var workGoldens = []workGolden{
	{
		name: "php_5_pin20",
		engines: [3]engineWork{
			{tested: 140, core: 221, props: 15340, visits: 26958},
			{tested: 140, core: 221, props: 82679, visits: 91472},
			{tested: 140, core: 221, props: 82683, occ: 233160},
		},
		events:    289,
		additions: 141, hints: 11545,
		dag: sched.Stats{Tasks: 141, Edges: 322, Roots: 45, Depth: 37, MaxWidth: 45, TotalCost: 11686, CritCost: 3509},
	},
	{
		name: "rand3_v40s3_chain1500",
		engines: [3]engineWork{
			{tested: 15, core: 54, props: 3139, visits: 3656},
			{tested: 15, core: 54, props: 19648, visits: 20145},
			{tested: 15, core: 54, props: 183, occ: 1286},
		},
		events:    39,
		additions: 16, hints: 90,
		dag: sched.Stats{Tasks: 16, Edges: 18, Roots: 6, Depth: 7, MaxWidth: 6, TotalCost: 106, CritCost: 51},
	},
	{
		name: "php_5",
		engines: [3]engineWork{
			{tested: 140, core: 81, props: 2280, visits: 10818},
			{tested: 140, core: 81, props: 2479, visits: 10972},
			{tested: 140, core: 81, props: 2468, occ: 77982},
		},
		events:    289,
		additions: 141, hints: 1545,
		dag: sched.Stats{Tasks: 141, Edges: 322, Roots: 44, Depth: 37, MaxWidth: 44, TotalCost: 1686, CritCost: 649},
	},
	{
		name: "rand3_v50s9",
		engines: [3]engineWork{
			{tested: 25, core: 122, props: 471, visits: 1932},
			{tested: 25, core: 122, props: 502, visits: 1934},
			{tested: 25, core: 122, props: 482, occ: 3999},
		},
		events:    59,
		additions: 26, hints: 273,
		dag: sched.Stats{Tasks: 26, Edges: 46, Roots: 5, Depth: 16, MaxWidth: 5, TotalCost: 299, CritCost: 205},
	},
	{
		name: "php_6_pin48",
		engines: [3]engineWork{
			{tested: 592, core: 517, props: 106018, visits: 241257},
			{tested: 592, core: 517, props: 1645409, visits: 1752629},
			{tested: 590, core: 517, props: 1606847, occ: 4959948},
		},
		events:    1193,
		additions: 593, hints: 79331,
		dag: sched.Stats{Tasks: 593, Edges: 1717, Roots: 98, Depth: 77, MaxWidth: 127, TotalCost: 79924, CritCost: 12812},
	},
	{
		name: "php_7_pin40",
		engines: [3]engineWork{
			{tested: 3306, core: 564, props: 488746, visits: 2881790},
			{tested: 3306, core: 564, props: 6796278, visits: 9119327},
			{tested: 3292, core: 564, props: 6650448, occ: 99508810},
		},
		events:    6621,
		additions: 3307, hints: 202957,
		dag: sched.Stats{Tasks: 3307, Edges: 15984, Roots: 186, Depth: 269, MaxWidth: 357, TotalCost: 206264, CritCost: 25185},
	},
	{
		name: "rand3_v60s9_chain4000",
		engines: [3]engineWork{
			{tested: 9, core: 53, props: 8137, visits: 8571},
			{tested: 9, core: 53, props: 28146, visits: 28569},
			{tested: 9, core: 53, props: 199, occ: 1346},
		},
		events:    27,
		additions: 10, hints: 92,
		dag: sched.Stats{Tasks: 10, Edges: 13, Roots: 2, Depth: 8, MaxWidth: 2, TotalCost: 102, CritCost: 92},
	},
	{
		name: "php_7",
		engines: [3]engineWork{
			{tested: 3847, core: 204, props: 73523, visits: 2795698},
			{tested: 3847, core: 204, props: 83833, visits: 3016130},
			{tested: 3819, core: 204, props: 83642, occ: 120464511},
		},
		events:    7703,
		additions: 3848, hints: 40296,
		dag: sched.Stats{Tasks: 3848, Edges: 17443, Roots: 213, Depth: 323, MaxWidth: 502, TotalCost: 44144, CritCost: 7772},
	},
	{
		name: "rand3_v60s17",
		engines: [3]engineWork{
			{tested: 46, core: 169, props: 881, visits: 3686},
			{tested: 46, core: 169, props: 917, visits: 3689},
			{tested: 46, core: 164, props: 890, occ: 9153},
		},
		events:    101,
		additions: 47, hints: 474,
		dag: sched.Stats{Tasks: 47, Edges: 75, Roots: 19, Depth: 18, MaxWidth: 19, TotalCost: 521, CritCost: 249},
	},
}

// TestBCPBenchSmall checks the shape of the per-engine counters on three
// small instances: every engine does work, each reports only its own
// counter, and the persistent root trail never costs the watched engine
// visits over the scratch variant (and saves at least half on the suite).
func TestBCPBenchSmall(t *testing.T) {
	insts := []gen.Instance{
		gen.PHPPinned(4, 12),
		gen.RandUnsatChained(3, 30, 500),
		gen.PHP(4),
	}
	var incVisits, scrVisits int64
	for _, inst := range insts {
		w := measureWork(t, inst)
		for i, e := range w.engines {
			kind := workEngines[i]
			if e.tested <= 0 || e.props <= 0 {
				t.Errorf("%s/%v: no work measured: %+v", inst.Name, kind, e)
			}
			if kind == core.EngineCounting {
				if e.visits != 0 || e.occ <= 0 {
					t.Errorf("%s/%v: visits=%d occ=%d", inst.Name, kind, e.visits, e.occ)
				}
			} else if e.visits <= 0 || e.occ != 0 {
				t.Errorf("%s/%v: visits=%d occ=%d", inst.Name, kind, e.visits, e.occ)
			}
		}
		inc, scr := w.engines[0].visits, w.engines[1].visits
		if scr < inc {
			t.Errorf("%s: root-trail reuse increased visits: %d > %d", inst.Name, inc, scr)
		}
		incVisits += inc
		scrVisits += scr
	}
	if scrVisits < 2*incVisits {
		t.Errorf("suite visits: watched %d, scratch %d; want a reduction of at least 2x", incVisits, scrVisits)
	}
}

// TestLRATBenchEndToEnd records the LRAT of a check-marked run on php_4 and
// checks that lrat.Check accepts it (measureWork fails otherwise) and that
// the recorded proof and its hint DAG are non-empty and agree.
func TestLRATBenchEndToEnd(t *testing.T) {
	w := measureWork(t, gen.PHP(4))
	if w.additions <= 0 || w.hints <= 0 {
		t.Fatalf("empty recorded proof: %+v", w)
	}
	if w.dag.Tasks != w.additions {
		t.Fatalf("DAG has %d tasks for %d additions", w.dag.Tasks, w.additions)
	}
}

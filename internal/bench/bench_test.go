package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/solver"
)

func quickOpts() solver.Options {
	o := DefaultSolverOptions()
	o.MaxConflicts = 500_000
	return o
}

func TestRunInstance(t *testing.T) {
	run, err := RunInstance(gen.PHP(4), quickOpts(), core.Options{Mode: core.ModeCheckMarked})
	if err != nil {
		t.Fatal(err)
	}
	if run.Trace.Len() == 0 || run.Verify == nil || !run.Verify.OK {
		t.Fatalf("incomplete run: %+v", run)
	}
	if run.SolveTime <= 0 || run.VerifyTime <= 0 {
		t.Error("times not measured")
	}
}

func TestRunInstanceRejectsSat(t *testing.T) {
	inst := gen.Instance{Name: "sat", Family: "test", F: gen.PHP(3).F.Restrict([]int{0, 1})}
	if _, err := RunInstance(inst, quickOpts(), core.Options{}); err == nil {
		t.Error("satisfiable instance accepted")
	}
}

func TestTable1Quick(t *testing.T) {
	rows, err := Table1(SuiteQuick(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(SuiteQuick()) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.ConflictClauses <= 0 || r.InitClauses <= 0 {
			t.Errorf("%s: empty row %+v", r.Name, r)
		}
		if r.TestedPct <= 0 || r.TestedPct > 100 {
			t.Errorf("%s: TestedPct = %v", r.Name, r.TestedPct)
		}
		if r.CorePct <= 0 || r.CorePct > 100 {
			t.Errorf("%s: CorePct = %v", r.Name, r.CorePct)
		}
	}
	var buf bytes.Buffer
	if err := RenderTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Unsatisfiable core") {
		t.Error("render missing header")
	}
}

func TestTable2Quick(t *testing.T) {
	rows, err := Table2(SuiteQuick(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ResNodes <= 0 || r.ProofLits <= 0 {
			t.Errorf("%s: sizes %d/%d", r.Name, r.ResNodes, r.ProofLits)
		}
		if r.RatioPct <= 0 {
			t.Errorf("%s: ratio %v", r.Name, r.RatioPct)
		}
	}
	var buf bytes.Buffer
	if err := RenderTable2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Resolution graph size") {
		t.Error("render missing header")
	}
}

func TestTable3Quick(t *testing.T) {
	insts := []gen.Instance{gen.Fifo(4, 6), gen.Fifo(4, 12)}
	rows, err := Table3(insts, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	var buf bytes.Buffer
	if err := RenderTable3(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestSchemesAblationQuick(t *testing.T) {
	rows, err := SchemesAblation([]gen.Instance{gen.PHP(5)}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// §5: decision-scheme clauses are more "global" — more resolutions per
	// clause than 1UIP.
	var r1uip, rdec SchemeRow
	for _, r := range rows {
		switch r.Scheme {
		case solver.Learn1UIP:
			r1uip = r
		case solver.LearnDecision:
			rdec = r
		}
	}
	if rdec.ResPerClause <= r1uip.ResPerClause {
		t.Errorf("decision Res/clause %.1f <= 1UIP %.1f", rdec.ResPerClause, r1uip.ResPerClause)
	}
	var buf bytes.Buffer
	if err := RenderSchemes(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyModesAblationQuick(t *testing.T) {
	rows, err := VerifyModesAblation([]gen.Instance{gen.Pipe(2, 4), gen.PHP(5)}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Tested1 < r.Tested2 {
			t.Errorf("%s: check-all tested fewer clauses (%d) than check-marked (%d)",
				r.Name, r.Tested1, r.Tested2)
		}
		if r.Tested2 > r.ProofSize {
			t.Errorf("%s: tested more than the proof size", r.Name)
		}
	}
	var buf bytes.Buffer
	if err := RenderVerifyModes(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestEngineAblationQuick(t *testing.T) {
	rows, err := EngineAblation([]gen.Instance{gen.PHP(5)}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	var buf bytes.Buffer
	if err := RenderEngines(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestTrimAblationQuick(t *testing.T) {
	rows, err := TrimAblation([]gen.Instance{gen.PHP(5), gen.AdderEquiv(8)}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Trimmed > r.Original {
			t.Errorf("%s: trim grew the proof", r.Name)
		}
		if r.Trimmed == 0 {
			t.Errorf("%s: trimmed everything", r.Name)
		}
	}
	var buf bytes.Buffer
	if err := RenderTrim(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestCoreFixpointQuick(t *testing.T) {
	// PHP plus junk clauses over fresh variables: the fixpoint core must
	// shed the junk.
	inst := gen.PHP(4)
	f := inst.F.Clone()
	base := f.NumVars
	for i := 0; i < 20; i++ {
		f.Add(base+i+1, base+i+2)
	}
	row, err := CoreFixpoint(gen.Instance{Name: "php4junk", Family: "php", F: f}, quickOpts(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if row.FinalCore > inst.F.NumClauses() {
		t.Errorf("final core %d exceeds the real core's upper bound %d",
			row.FinalCore, inst.F.NumClauses())
	}
	if row.FinalCore > row.FirstCore {
		t.Errorf("core grew: %d -> %d", row.FirstCore, row.FinalCore)
	}
	var buf bytes.Buffer
	if err := RenderCores(&buf, []CoreRow{*row}); err != nil {
		t.Fatal(err)
	}
}

func TestCoreMethodsAblationQuick(t *testing.T) {
	rows, err := CoreMethodsAblation([]gen.Instance{gen.PHP(4), gen.AdderEquiv(8)}, quickOpts(), 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.VerifyCore == 0 || r.AssumptionCore == 0 || r.ResolutionCore == 0 {
			t.Errorf("%s: empty core in %+v", r.Name, r)
		}
		if r.MUS > 0 && (r.MUS > r.AssumptionCore || r.MUS > r.Clauses) {
			t.Errorf("%s: MUS %d larger than its parent core %d", r.Name, r.MUS, r.AssumptionCore)
		}
		// PHP is minimally unsatisfiable: every notion must find the whole
		// formula.
		if strings.HasPrefix(r.Name, "php_") {
			if r.VerifyCore != r.Clauses || r.MUS != r.Clauses {
				t.Errorf("php: cores %+v, want all %d clauses", r, r.Clauses)
			}
		}
	}
	var buf bytes.Buffer
	if err := RenderCoreMethods(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesAblationQuick(t *testing.T) {
	rows, err := BaselinesAblation([]gen.Instance{gen.PHP(5), gen.XorChain(9)}, quickOpts(), 1_000_000, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CDCLConflicts == 0 {
			t.Errorf("%s: no CDCL conflicts", r.Name)
		}
		if !r.DPLLTimedOut && r.DPLLBacktracks == 0 {
			t.Errorf("%s: DPLL did no work", r.Name)
		}
		if !r.BDDBlewUp && r.BDDNodes == 0 {
			t.Errorf("%s: BDD built no nodes", r.Name)
		}
	}
	var buf bytes.Buffer
	if err := RenderBaselines(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BDD nodes") {
		t.Error("render missing header")
	}
}

func TestCSVExports(t *testing.T) {
	r1 := []Row1{{Name: "a", ConflictClauses: 10, TestedPct: 50, InitClauses: 20, CorePct: 30}}
	r2 := []Row2{{Name: "a", ResNodes: 100, ProofLits: 50, RatioPct: 50}}
	r3 := []Row3{{Name: "a", ResNodes: 100, ProofLits: 50, RatioPct: 50}}
	rs := []SchemeRow{{Name: "a", Conflicts: 5, ProofClauses: 5, ProofLits: 20, ResNodes: 40}}
	for name, f := range map[string]func() error{
		"t1": func() error { var b bytes.Buffer; return CSVTable1(&b, r1) },
		"t2": func() error { var b bytes.Buffer; return CSVTable2(&b, r2) },
		"t3": func() error { var b bytes.Buffer; return CSVTable3(&b, r3) },
		"sc": func() error { var b bytes.Buffer; return CSVSchemes(&b, rs) },
	} {
		if err := f(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	var b bytes.Buffer
	if err := CSVTable1(&b, r1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "name,") {
		t.Errorf("csv = %q", b.String())
	}
}

func TestSuitesDistinctNames(t *testing.T) {
	names := map[string]bool{}
	for _, inst := range append(append(SuiteMain(), SuiteFifo()...), SuiteQuick()...) {
		if names[inst.Name] {
			t.Errorf("duplicate instance name %s across suites", inst.Name)
		}
		names[inst.Name] = true
	}
}

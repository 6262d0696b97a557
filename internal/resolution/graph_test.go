package resolution

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/solver"
)

func TestExpandHandProof(t *testing.T) {
	p := handProof()
	g, err := p.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumInternal() != 3 {
		t.Errorf("internal nodes = %d, want 3", g.NumInternal())
	}
	if g.Sink != 4+2 {
		t.Errorf("sink = %d", g.Sink)
	}
	stats := g.Reachable()
	if stats.InternalNodes != 3 || stats.SourcesTouched != 4 {
		t.Errorf("reach = %+v", stats)
	}
	if stats.Depth != 2 {
		t.Errorf("depth = %d, want 2", stats.Depth)
	}
}

func TestExpandRejectsBadProof(t *testing.T) {
	p := &Proof{
		Sources: []cnf.Clause{cl(1, 2), cl(1, 3)},
		Chains:  [][]int{{0, 1}},
	}
	if _, err := p.Expand(); err == nil {
		t.Error("no-clash proof expanded")
	}
	p2 := handProof()
	p2.Chains = p2.Chains[:2] // sink clause (1) is not empty
	if _, err := p2.Expand(); err == nil {
		t.Error("non-empty sink accepted")
	}
}

func TestExpandCopyChain(t *testing.T) {
	p := &Proof{
		Sources: []cnf.Clause{{}},
		Chains:  [][]int{{0}},
	}
	g, err := p.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumInternal() != 0 || g.Sink != 0 {
		t.Errorf("graph = %+v", g)
	}
	stats := g.Reachable()
	if stats.SourcesTouched != 1 || stats.Depth != 0 {
		t.Errorf("reach = %+v", stats)
	}
}

// TestReachableSourcesFormCore: the sources reachable from the empty-clause
// sink are an unsatisfiable core of the input (an independent
// cross-validation of the two core notions in the repository).
func TestReachableSourcesFormCore(t *testing.T) {
	inst := php(4)
	s := solver.NewFromFormula(inst, solver.Options{RecordChains: true})
	if s.Run() != solver.Unsat {
		t.Fatal("not unsat")
	}
	rp, err := FromSolverRun(inst, s.Trace(), s.Chains())
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Verify(); err != nil {
		t.Fatal(err)
	}
	g, err := rp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	stats := g.Reachable()
	if stats.SourcesTouched == 0 || stats.SourcesTouched > inst.NumClauses() {
		t.Fatalf("reach = %+v", stats)
	}
	coreF := inst.Restrict(stats.SourceIDs)
	st, _, _, _, err := solver.Solve(coreF, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st != solver.Unsat {
		t.Fatalf("resolution-reachable sources are not a core: %v", st)
	}
	// Trimmed graph never exceeds the full graph.
	if int64(stats.InternalNodes) > rp.InternalNodes() {
		t.Errorf("trimmed %d > full %d", stats.InternalNodes, rp.InternalNodes())
	}
	if stats.Depth <= 0 {
		t.Errorf("depth = %d", stats.Depth)
	}
}

func TestExpandMatchesInternalNodesCount(t *testing.T) {
	inst := php(3)
	s := solver.NewFromFormula(inst, solver.Options{RecordChains: true})
	if s.Run() != solver.Unsat {
		t.Fatal("not unsat")
	}
	rp, err := FromSolverRun(inst, s.Trace(), s.Chains())
	if err != nil {
		t.Fatal(err)
	}
	g, err := rp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if int64(g.NumInternal()) != rp.InternalNodes() {
		t.Errorf("expanded %d nodes, counted %d", g.NumInternal(), rp.InternalNodes())
	}
}

// Package resolution implements resolution-graph proofs of unsatisfiability
// — the baseline proof format the paper compares conflict-clause proofs
// against (§5, Tables 2 and 3).
//
// A resolution-graph proof is a DAG whose sources are clauses of the input
// formula and whose internal nodes are resolvents of two parents; the proof
// is correct when every resolution clashes on exactly one variable, no
// resolvent is tautologous, and a sink node carries the empty clause.
//
// Following [12]'s observation that conflict-clause-recording solvers admit
// a compact representation, derived clauses are stored as *chains*: clause
// k is the left-to-right sequential resolvent of a list of antecedent IDs
// (a trivial-resolution chain), which is exactly what CDCL conflict analysis
// produces. A chain of n antecedents contributes n-1 internal graph nodes.
// Verify expands every chain, so checking remains a per-resolution check on
// the explicit graph.
package resolution

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/proof"
)

// Proof is a resolution-graph proof in chain form. Node IDs: 0..len(Sources)-1
// are the source clauses; len(Sources)+k is the clause derived by Chains[k].
type Proof struct {
	// Sources are the input formula's clauses, in input order (IDs match
	// clause indices, so solver chains plug in directly).
	Sources []cnf.Clause
	// Chains derive one clause each; every entry is a node ID smaller than
	// the clause being derived (the graph is topologically ordered). A
	// one-element chain is a copy node (used when the input already
	// contains the empty clause).
	Chains [][]int
	// Expected, when non-nil, gives the clause each chain is supposed to
	// derive (as recorded in the conflict-clause trace); Verify checks the
	// resolvent matches. len(Expected) == len(Chains).
	Expected []cnf.Clause
}

// FromSolverRun assembles a resolution-graph proof from a solver run on f
// that produced the given trace with recorded chains (Options.RecordChains).
// The final step resolving the final conflicting pair into the empty clause
// is appended automatically.
func FromSolverRun(f *cnf.Formula, tr *proof.Trace, chains [][]int) (*Proof, error) {
	if len(chains) != tr.Len() {
		return nil, fmt.Errorf("resolution: %d chains for %d trace clauses (was RecordChains set?)",
			len(chains), tr.Len())
	}
	p := &Proof{
		Sources:  f.Clauses,
		Chains:   make([][]int, 0, len(chains)+1),
		Expected: make([]cnf.Clause, 0, len(chains)+1),
	}
	p.Chains = append(p.Chains, chains...)
	p.Expected = append(p.Expected, tr.Clauses...)

	switch tr.Terminates() {
	case proof.TermFinalPair:
		n := len(f.Clauses) + tr.Len()
		p.Chains = append(p.Chains, []int{n - 2, n - 1})
		p.Expected = append(p.Expected, cnf.Clause{})
	case proof.TermEmptyClause:
		// The last chain already derives the empty clause.
	default:
		return nil, fmt.Errorf("resolution: trace does not terminate")
	}
	return p, nil
}

// NumSources returns the number of source nodes.
func (p *Proof) NumSources() int { return len(p.Sources) }

// InternalNodes returns the number of internal nodes of the expanded
// resolution graph: one per resolution step, i.e. len(chain)-1 per chain.
// This is the quantity the paper's Table 2 reports (in thousands).
func (p *Proof) InternalNodes() int64 {
	var n int64
	for _, ch := range p.Chains {
		if len(ch) > 1 {
			n += int64(len(ch) - 1)
		}
	}
	return n
}

// TotalNodes returns sources + internal nodes.
func (p *Proof) TotalNodes() int64 {
	return int64(len(p.Sources)) + p.InternalNodes()
}

// Verify checks the proof: every chain must be a valid trivial-resolution
// derivation (unique clash variable at each step, no tautologous
// resolvent), every referenced ID must precede the derived clause, the
// derived clause must match Expected when present, and the final derived
// clause must be empty.
func (p *Proof) Verify() error {
	if len(p.Chains) == 0 {
		return fmt.Errorf("resolution: no derived clauses")
	}
	if p.Expected != nil && len(p.Expected) != len(p.Chains) {
		return fmt.Errorf("resolution: %d expected clauses for %d chains",
			len(p.Expected), len(p.Chains))
	}
	nodes := make([]cnf.Clause, len(p.Sources), len(p.Sources)+len(p.Chains))
	for i, c := range p.Sources {
		norm, _ := c.Normalize()
		nodes[i] = norm
	}
	for k, ch := range p.Chains {
		self := len(p.Sources) + k
		if len(ch) == 0 {
			return fmt.Errorf("resolution: chain %d is empty", k)
		}
		for _, id := range ch {
			if id < 0 || id >= self {
				return fmt.Errorf("resolution: chain %d references node %d (not before %d)", k, id, self)
			}
		}
		cur := nodes[ch[0]]
		for i := 1; i < len(ch); i++ {
			next := nodes[ch[i]]
			v, ok := cnf.ClashVar(cur, next)
			if !ok {
				return fmt.Errorf("resolution: chain %d step %d: clauses %v and %v have no unique clash variable",
					k, i, cur, next)
			}
			res, taut, ok := cur.Resolve(next, v)
			if !ok {
				return fmt.Errorf("resolution: chain %d step %d: cannot resolve on %v", k, i, v)
			}
			if taut {
				return fmt.Errorf("resolution: chain %d step %d: tautologous resolvent %v", k, i, res)
			}
			cur = res
		}
		if p.Expected != nil {
			want, _ := p.Expected[k].Normalize()
			if !cur.SameLits(want) {
				return fmt.Errorf("resolution: chain %d derives %v, trace recorded %v", k, cur, want)
			}
		}
		nodes = append(nodes, cur)
	}
	if last := nodes[len(nodes)-1]; len(last) != 0 {
		return fmt.Errorf("resolution: sink clause is %v, not empty", last)
	}
	return nil
}

// DerivedClause expands chain k and returns the clause it derives; mainly
// for tests and diagnostics. It assumes the proof verifies.
func (p *Proof) DerivedClause(k int) (cnf.Clause, error) {
	nodes := make([]cnf.Clause, len(p.Sources))
	for i, c := range p.Sources {
		norm, _ := c.Normalize()
		nodes[i] = norm
	}
	for j := 0; j <= k; j++ {
		ch := p.Chains[j]
		cur := nodes[ch[0]]
		for i := 1; i < len(ch); i++ {
			v, ok := cnf.ClashVar(cur, nodes[ch[i]])
			if !ok {
				return nil, fmt.Errorf("resolution: chain %d step %d: no clash", j, i)
			}
			res, _, ok := cur.Resolve(nodes[ch[i]], v)
			if !ok {
				return nil, fmt.Errorf("resolution: chain %d step %d: bad pivot", j, i)
			}
			cur = res
		}
		nodes = append(nodes, cur)
	}
	return nodes[len(nodes)-1], nil
}

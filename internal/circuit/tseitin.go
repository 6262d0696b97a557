package circuit

import "repro/internal/cnf"

// ToCNF performs the Tseitin transformation: node i becomes CNF variable i,
// every gate contributes its defining clauses, the constant node is pinned
// false, and each signal in asserts is constrained true by a unit clause.
// The returned formula is equisatisfiable with "all asserted signals are 1".
func (c *Circuit) ToCNF(asserts ...Signal) *cnf.Formula {
	f := cnf.NewFormula(len(c.gates))
	lit := func(s Signal) cnf.Lit { return cnf.NewLit(cnf.Var(s.node()), s.inverted()) }

	// Pin the constant node to 0.
	f.AddClause(cnf.Clause{cnf.NegLit(0)})

	for id, g := range c.gates {
		y := cnf.PosLit(cnf.Var(id))
		ny := y.Neg()
		switch g.Op {
		case OpConst, OpInput:
			// no defining clauses
		case OpAnd:
			a, b := lit(g.In[0]), lit(g.In[1])
			f.AddClause(cnf.Clause{ny, a})
			f.AddClause(cnf.Clause{ny, b})
			f.AddClause(cnf.Clause{y, a.Neg(), b.Neg()})
		case OpOr:
			a, b := lit(g.In[0]), lit(g.In[1])
			f.AddClause(cnf.Clause{y, a.Neg()})
			f.AddClause(cnf.Clause{y, b.Neg()})
			f.AddClause(cnf.Clause{ny, a, b})
		case OpXor:
			a, b := lit(g.In[0]), lit(g.In[1])
			f.AddClause(cnf.Clause{ny, a, b})
			f.AddClause(cnf.Clause{ny, a.Neg(), b.Neg()})
			f.AddClause(cnf.Clause{y, a, b.Neg()})
			f.AddClause(cnf.Clause{y, a.Neg(), b})
		case OpMux:
			s, a, b := lit(g.In[0]), lit(g.In[1]), lit(g.In[2])
			f.AddClause(cnf.Clause{ny, s.Neg(), a})
			f.AddClause(cnf.Clause{y, s.Neg(), a.Neg()})
			f.AddClause(cnf.Clause{ny, s, b})
			f.AddClause(cnf.Clause{y, s, b.Neg()})
			// Redundant but propagation-strengthening clauses:
			f.AddClause(cnf.Clause{ny, a, b})
			f.AddClause(cnf.Clause{y, a.Neg(), b.Neg()})
		}
	}
	for _, s := range asserts {
		f.AddClause(cnf.Clause{lit(s)})
	}
	return f
}

// InputVars returns the CNF variables of the primary inputs, in input order.
func (c *Circuit) InputVars() []cnf.Var {
	vs := make([]cnf.Var, len(c.inputs))
	for i, id := range c.inputs {
		vs[i] = cnf.Var(id)
	}
	return vs
}

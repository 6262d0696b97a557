package circuit

import "fmt"

// CopyInto stamps this circuit's logic into dst, substituting dst signals
// for the source inputs: inputMap[i] drives the source's i-th input (in
// Input() creation order). It returns a translation function mapping any
// source signal to the corresponding dst signal. Registered outputs are
// not copied — translate them explicitly.
//
// Stamping is how cmd/aigmiter builds a miter: both circuits are copied
// into one destination over a shared set of inputs.
func (c *Circuit) CopyInto(dst *Circuit, inputMap []Signal) (func(Signal) Signal, error) {
	if len(inputMap) != len(c.inputs) {
		return nil, fmt.Errorf("circuit: CopyInto got %d substitutions for %d inputs",
			len(inputMap), len(c.inputs))
	}
	// nodeMap[i] is the dst signal corresponding to source node i (in
	// positive polarity).
	nodeMap := make([]Signal, len(c.gates))
	nodeMap[0] = False
	next := 0
	translate := func(s Signal) Signal {
		out := nodeMap[s.node()]
		if s.inverted() {
			out = out.Not()
		}
		return out
	}
	for id := 1; id < len(c.gates); id++ {
		g := c.gates[id]
		switch g.Op {
		case OpInput:
			nodeMap[id] = inputMap[next]
			next++
		case OpAnd:
			nodeMap[id] = dst.And(translate(g.In[0]), translate(g.In[1]))
		case OpOr:
			nodeMap[id] = dst.Or(translate(g.In[0]), translate(g.In[1]))
		case OpXor:
			nodeMap[id] = dst.Xor(translate(g.In[0]), translate(g.In[1]))
		case OpMux:
			nodeMap[id] = dst.Mux(translate(g.In[0]), translate(g.In[1]), translate(g.In[2]))
		default:
			return nil, fmt.Errorf("circuit: CopyInto: unexpected op %v at node %d", g.Op, id)
		}
	}
	return translate, nil
}

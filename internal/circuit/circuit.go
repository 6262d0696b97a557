// Package circuit provides gate-level combinational circuits with a
// reference simulator and a Tseitin CNF encoder. It is the substrate the
// benchmark generators use to build the equivalence-checking, pipelined-
// datapath and bounded-model-checking style UNSAT instances on which the
// paper's experiments run.
//
// Signals carry an optional inversion bit (AIG style), so NOT gates are
// free. The builder performs light structural simplification (constant
// folding, idempotence, complementation) to keep generated CNFs lean.
// Sequential designs are expressed by explicit unrolling: each cycle's state
// is an ordinary signal vector (see the gen package).
package circuit

import "fmt"

// Signal references a circuit node with an inversion bit in the LSB.
type Signal int32

// The constant-false node is always node 0.
const (
	False Signal = 0
	True  Signal = 1
)

// Not returns the inverted signal.
func (s Signal) Not() Signal { return s ^ 1 }

// node returns the node index of the signal.
func (s Signal) node() int32 { return int32(s) >> 1 }

// inverted reports whether the signal carries an inversion.
func (s Signal) inverted() bool { return s&1 == 1 }

func signalOf(node int32, inv bool) Signal {
	s := Signal(node << 1)
	if inv {
		s |= 1
	}
	return s
}

// GateOp enumerates node kinds.
type GateOp uint8

const (
	OpConst GateOp = iota // node 0 only: constant false
	OpInput
	OpAnd
	OpOr
	OpXor
	OpMux // in[0] ? in[1] : in[2]
)

func (op GateOp) String() string {
	switch op {
	case OpConst:
		return "const"
	case OpInput:
		return "input"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpXor:
		return "xor"
	case OpMux:
		return "mux"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Gate is one circuit node.
type Gate struct {
	Op GateOp
	In [3]Signal // used entries depend on Op (2 for and/or/xor, 3 for mux)
}

// Circuit is a combinational netlist under construction.
type Circuit struct {
	gates   []Gate
	inputs  []int32 // node ids of inputs, in creation order
	outputs []Signal
}

// New returns an empty circuit containing only the constant node.
func New() *Circuit {
	return &Circuit{gates: []Gate{{Op: OpConst}}}
}

// NumGates returns the number of nodes (including constant and inputs).
func (c *Circuit) NumGates() int { return len(c.gates) }

// NumInputs returns the number of primary inputs.
func (c *Circuit) NumInputs() int { return len(c.inputs) }

// Outputs returns the registered output signals.
func (c *Circuit) Outputs() []Signal { return c.outputs }

// Input creates a fresh primary input.
func (c *Circuit) Input() Signal {
	id := int32(len(c.gates))
	c.gates = append(c.gates, Gate{Op: OpInput})
	c.inputs = append(c.inputs, id)
	return signalOf(id, false)
}

// Output registers s as a primary output and returns its index.
func (c *Circuit) Output(s Signal) int {
	c.outputs = append(c.outputs, s)
	return len(c.outputs) - 1
}

func (c *Circuit) newGate(op GateOp, a, b, sel Signal) Signal {
	id := int32(len(c.gates))
	c.gates = append(c.gates, Gate{Op: op, In: [3]Signal{a, b, sel}})
	return signalOf(id, false)
}

// And returns a AND b with constant folding and local simplification.
func (c *Circuit) And(a, b Signal) Signal {
	switch {
	case a == False || b == False:
		return False
	case a == True:
		return b
	case b == True:
		return a
	case a == b:
		return a
	case a == b.Not():
		return False
	}
	return c.newGate(OpAnd, a, b, 0)
}

// Or returns a OR b.
func (c *Circuit) Or(a, b Signal) Signal {
	switch {
	case a == True || b == True:
		return True
	case a == False:
		return b
	case b == False:
		return a
	case a == b:
		return a
	case a == b.Not():
		return True
	}
	return c.newGate(OpOr, a, b, 0)
}

// Xor returns a XOR b.
func (c *Circuit) Xor(a, b Signal) Signal {
	switch {
	case a == False:
		return b
	case b == False:
		return a
	case a == True:
		return b.Not()
	case b == True:
		return a.Not()
	case a == b:
		return False
	case a == b.Not():
		return True
	}
	return c.newGate(OpXor, a, b, 0)
}

// Not returns the inversion of a (free).
func (c *Circuit) Not(a Signal) Signal { return a.Not() }

// Nor and Xnor are conveniences over the base gates.
func (c *Circuit) Nor(a, b Signal) Signal  { return c.Or(a, b).Not() }
func (c *Circuit) Xnor(a, b Signal) Signal { return c.Xor(a, b).Not() }

// Mux returns sel ? a : b.
func (c *Circuit) Mux(sel, a, b Signal) Signal {
	switch {
	case sel == True:
		return a
	case sel == False:
		return b
	case a == b:
		return a
	case a == b.Not():
		return c.Xnor(sel, a)
	}
	return c.newGate(OpMux, sel, a, b)
}

// OrN folds OR over the signals (False for the empty list).
func (c *Circuit) OrN(xs ...Signal) Signal {
	out := False
	for _, x := range xs {
		out = c.Or(out, x)
	}
	return out
}

// Eval simulates the circuit on the given input values (one per Input call,
// in order) and returns the value of every node; index the result with
// ValueOf to resolve a Signal.
func (c *Circuit) Eval(inputs []bool) ([]bool, error) {
	if len(inputs) != len(c.inputs) {
		return nil, fmt.Errorf("circuit: %d input values for %d inputs", len(inputs), len(c.inputs))
	}
	vals := make([]bool, len(c.gates))
	next := 0
	for id, g := range c.gates {
		switch g.Op {
		case OpConst:
			vals[id] = false
		case OpInput:
			vals[id] = inputs[next]
			next++
		case OpAnd:
			vals[id] = ValueOf(vals, g.In[0]) && ValueOf(vals, g.In[1])
		case OpOr:
			vals[id] = ValueOf(vals, g.In[0]) || ValueOf(vals, g.In[1])
		case OpXor:
			vals[id] = ValueOf(vals, g.In[0]) != ValueOf(vals, g.In[1])
		case OpMux:
			if ValueOf(vals, g.In[0]) {
				vals[id] = ValueOf(vals, g.In[1])
			} else {
				vals[id] = ValueOf(vals, g.In[2])
			}
		default:
			return nil, fmt.Errorf("circuit: unknown op %v", g.Op)
		}
	}
	return vals, nil
}

// ValueOf resolves a signal against a node valuation from Eval.
func ValueOf(vals []bool, s Signal) bool {
	return vals[s.node()] != s.inverted()
}

// EvalOutputs simulates and returns just the registered outputs.
func (c *Circuit) EvalOutputs(inputs []bool) ([]bool, error) {
	vals, err := c.Eval(inputs)
	if err != nil {
		return nil, err
	}
	outs := make([]bool, len(c.outputs))
	for i, s := range c.outputs {
		outs[i] = ValueOf(vals, s)
	}
	return outs, nil
}

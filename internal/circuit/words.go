package circuit

// Word is a little-endian vector of signals (index 0 = LSB).
type Word []Signal

// InputWord creates n fresh inputs as a word.
func (c *Circuit) InputWord(n int) Word {
	w := make(Word, n)
	for i := range w {
		w[i] = c.Input()
	}
	return w
}

// ConstWord encodes val as an n-bit word.
func (c *Circuit) ConstWord(n int, val uint64) Word {
	w := make(Word, n)
	for i := range w {
		if val&(1<<uint(i)) != 0 {
			w[i] = True
		} else {
			w[i] = False
		}
	}
	return w
}

// halfAdder returns (sum, carry).
func (c *Circuit) halfAdder(a, b Signal) (Signal, Signal) {
	return c.Xor(a, b), c.And(a, b)
}

// fullAdder returns (sum, carry).
func (c *Circuit) fullAdder(a, b, cin Signal) (Signal, Signal) {
	s1, c1 := c.halfAdder(a, b)
	s2, c2 := c.halfAdder(s1, cin)
	return s2, c.Or(c1, c2)
}

// RippleAdd returns a + b (+cin) as an n-bit word plus carry-out, using a
// ripple-carry structure.
func (c *Circuit) RippleAdd(a, b Word, cin Signal) (Word, Signal) {
	n := len(a)
	out := make(Word, n)
	carry := cin
	for i := 0; i < n; i++ {
		out[i], carry = c.fullAdder(a[i], b[i], carry)
	}
	return out, carry
}

// CarrySelectAdd returns a + b (+cin) using a carry-select structure: the
// upper half is computed twice (carry 0 and carry 1) and selected by the
// lower half's carry-out. Functionally identical to RippleAdd but
// structurally different — exactly what equivalence-checking miters need.
func (c *Circuit) CarrySelectAdd(a, b Word, cin Signal) (Word, Signal) {
	n := len(a)
	if n <= 2 {
		return c.RippleAdd(a, b, cin)
	}
	half := n / 2
	lo, carryLo := c.RippleAdd(a[:half], b[:half], cin)
	hi0, cout0 := c.RippleAdd(a[half:], b[half:], False)
	hi1, cout1 := c.RippleAdd(a[half:], b[half:], True)
	out := make(Word, n)
	copy(out, lo)
	for i := half; i < n; i++ {
		out[i] = c.Mux(carryLo, hi1[i-half], hi0[i-half])
	}
	return out, c.Mux(carryLo, cout1, cout0)
}

// KoggeStoneAdd returns a + b (+cin) using the Kogge–Stone parallel-prefix
// structure: generate/propagate pairs combined over log n prefix levels.
// Functionally identical to RippleAdd, structurally very different — a
// third adder architecture for equivalence miters.
func (c *Circuit) KoggeStoneAdd(a, b Word, cin Signal) (Word, Signal) {
	n := len(a)
	g := make([]Signal, n) // generate
	p := make([]Signal, n) // propagate
	for i := 0; i < n; i++ {
		g[i] = c.And(a[i], b[i])
		p[i] = c.Xor(a[i], b[i])
	}
	// Prefix combine: after the sweep, g[i] is "carry out of position i
	// assuming cin=0"; fold cin through the propagate chain separately.
	pg := append([]Signal(nil), g...)
	pp := append([]Signal(nil), p...)
	for d := 1; d < n; d <<= 1 {
		ng := append([]Signal(nil), pg...)
		np := append([]Signal(nil), pp...)
		for i := d; i < n; i++ {
			ng[i] = c.Or(pg[i], c.And(pp[i], pg[i-d]))
			np[i] = c.And(pp[i], pp[i-d])
		}
		pg, pp = ng, np
	}
	carryInto := make([]Signal, n+1) // carry into position i
	carryInto[0] = cin
	for i := 1; i <= n; i++ {
		// carry into i = prefix-generate(i-1) OR prefix-propagate(i-1)&cin
		carryInto[i] = c.Or(pg[i-1], c.And(pp[i-1], cin))
	}
	out := make(Word, n)
	for i := 0; i < n; i++ {
		out[i] = c.Xor(p[i], carryInto[i])
	}
	return out, carryInto[n]
}

// Sub returns a - b (two's complement) and the final borrow-free carry.
func (c *Circuit) Sub(a, b Word) (Word, Signal) {
	nb := make(Word, len(b))
	for i := range b {
		nb[i] = b[i].Not()
	}
	return c.RippleAdd(a, nb, True)
}

// Inc returns a + 1.
func (c *Circuit) Inc(a Word) Word {
	out, _ := c.RippleAdd(a, c.ConstWord(len(a), 1), False)
	return out
}

// MulShiftAdd returns the low len(a) bits of a*b via the shift-add array
// multiplier.
func (c *Circuit) MulShiftAdd(a, b Word) Word {
	n := len(a)
	acc := c.ConstWord(n, 0)
	for i := 0; i < n; i++ {
		// partial = (a << i) masked by b[i]
		partial := make(Word, n)
		for j := 0; j < n; j++ {
			if j < i {
				partial[j] = False
			} else {
				partial[j] = c.And(a[j-i], b[i])
			}
		}
		acc, _ = c.RippleAdd(acc, partial, False)
	}
	return acc
}

// MulDiagonal returns the low len(a) bits of a*b via a column-compression
// (carry-save style) structure: partial products are summed column by
// column. Functionally identical to MulShiftAdd, structurally different.
func (c *Circuit) MulDiagonal(a, b Word) Word {
	n := len(a)
	cols := make([][]Signal, n)
	for i := 0; i < n; i++ {
		for j := 0; i+j < n; j++ {
			cols[i+j] = append(cols[i+j], c.And(a[j], b[i]))
		}
	}
	out := make(Word, n)
	for k := 0; k < n; k++ {
		col := cols[k]
		for len(col) > 1 {
			if len(col) >= 3 {
				s, carry := c.fullAdder(col[0], col[1], col[2])
				col = append(col[3:], s)
				if k+1 < n {
					cols[k+1] = append(cols[k+1], carry)
				}
			} else {
				s, carry := c.halfAdder(col[0], col[1])
				col = append(col[2:], s)
				if k+1 < n {
					cols[k+1] = append(cols[k+1], carry)
				}
			}
		}
		if len(col) == 0 {
			out[k] = False
		} else {
			out[k] = col[0]
		}
		cols[k] = nil
	}
	return out
}

// MuxWord returns sel ? a : b bitwise.
func (c *Circuit) MuxWord(sel Signal, a, b Word) Word {
	out := make(Word, len(a))
	for i := range a {
		out[i] = c.Mux(sel, a[i], b[i])
	}
	return out
}

// XorWord returns a XOR b bitwise.
func (c *Circuit) XorWord(a, b Word) Word {
	out := make(Word, len(a))
	for i := range a {
		out[i] = c.Xor(a[i], b[i])
	}
	return out
}

// AndWord returns a AND b bitwise.
func (c *Circuit) AndWord(a, b Word) Word {
	out := make(Word, len(a))
	for i := range a {
		out[i] = c.And(a[i], b[i])
	}
	return out
}

// NotWord inverts every bit.
func (c *Circuit) NotWord(a Word) Word {
	out := make(Word, len(a))
	for i := range a {
		out[i] = a[i].Not()
	}
	return out
}

// RotLeftConst rotates the word left by k positions.
func (c *Circuit) RotLeftConst(a Word, k int) Word {
	n := len(a)
	if n == 0 {
		return a
	}
	k = ((k % n) + n) % n
	out := make(Word, n)
	for i := 0; i < n; i++ {
		out[(i+k)%n] = a[i]
	}
	return out
}

// ShiftLeftConst shifts left by k, filling with zeros.
func (c *Circuit) ShiftLeftConst(a Word, k int) Word {
	n := len(a)
	out := make(Word, n)
	for i := 0; i < n; i++ {
		if i < k {
			out[i] = False
		} else {
			out[i] = a[i-k]
		}
	}
	return out
}

// BarrelRotLeft rotates a left by the amount encoded in sh (little-endian),
// using the classic logarithmic barrel structure: stage i conditionally
// rotates by 2^i under sh[i].
func (c *Circuit) BarrelRotLeft(a Word, sh Word) Word {
	out := a
	for i := 0; i < len(sh); i++ {
		rotated := c.RotLeftConst(out, 1<<uint(i))
		out = c.MuxWord(sh[i], rotated, out)
	}
	return out
}

// NaiveRotLeft rotates a left by the amount in sh by decoding the shift
// amount and or-ing one full rotation per possible value — functionally the
// barrel rotator, structurally very different.
func (c *Circuit) NaiveRotLeft(a Word, sh Word) Word {
	n := len(a)
	total := 1 << uint(len(sh))
	out := make(Word, n)
	for i := range out {
		out[i] = False
	}
	for amt := 0; amt < total; amt++ {
		isAmt := True
		for b := 0; b < len(sh); b++ {
			bit := sh[b]
			if amt&(1<<uint(b)) == 0 {
				bit = bit.Not()
			}
			isAmt = c.And(isAmt, bit)
		}
		rotated := c.RotLeftConst(a, amt%n)
		for i := 0; i < n; i++ {
			out[i] = c.Or(out[i], c.And(isAmt, rotated[i]))
		}
	}
	return out
}

// EqWord returns a single signal: a == b.
func (c *Circuit) EqWord(a, b Word) Signal {
	eq := True
	for i := range a {
		eq = c.And(eq, c.Xnor(a[i], b[i]))
	}
	return eq
}

// NeqWord returns a != b.
func (c *Circuit) NeqWord(a, b Word) Signal { return c.EqWord(a, b).Not() }

// WordVal packs a simulated word into a uint64 (for tests).
func WordVal(vals []bool, w Word) uint64 {
	var out uint64
	for i, s := range w {
		if ValueOf(vals, s) {
			out |= 1 << uint(i)
		}
	}
	return out
}

package sim

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Wide evaluates the combinational core of a frozen circuit 256 lanes at
// a time: every net carries WideWords (4) uint64 words, and lane t lives
// at bit t&63 of word t>>6 of the net's group. It executes the compiled
// program's four-word core, so bit t of every output group equals
// exactly what Simulator.Eval computes for that lane's scalar inputs.
// Not safe for concurrent use; create one per goroutine (the Program may
// be shared via NewWideProgram).
type Wide struct {
	p *Program
	v []uint64 // per-net lane groups, net n at v[n*WideWords:(n+1)*WideWords]
}

// NewWide returns a wide simulator bound to the frozen circuit c,
// compiling it first.
func NewWide(c *netlist.Circuit) *Wide {
	if !c.Frozen() {
		panic(fmt.Sprintf("sim: NewWide needs a frozen circuit (circuit %q is not frozen)", c.Name))
	}
	return NewWideProgram(Compile(c))
}

// NewWideProgram returns a wide simulator executing the already compiled
// program p with its own lane state.
func NewWideProgram(p *Program) *Wide {
	return &Wide{p: p, v: make([]uint64, p.c.NumNets()*WideWords)}
}

// Circuit returns the simulated circuit.
func (w *Wide) Circuit() *netlist.Circuit { return w.p.c }

// Program returns the compiled program the simulator executes.
func (w *Wide) Program() *Program { return w.p }

// Lanes returns the lane width (WideLanes).
func (w *Wide) Lanes() int { return WideLanes }

// Words returns the uint64 words carried per net (WideWords).
func (w *Wide) Words() int { return WideWords }

// Eval evaluates the combinational core across all 256 lanes. pi holds
// the primary-input lane groups (WideWords words per PI, flat, in
// netlist.Circuit.PIs order), ppi the flip-flop output groups in FF
// order. The returned slice holds WideWords words per net, net n at
// [n*WideWords : (n+1)*WideWords]; it is owned by the simulator and
// overwritten by the next Eval call.
func (w *Wide) Eval(pi, ppi []uint64) []uint64 {
	c := w.p.c
	if len(pi) != len(c.PIs)*WideWords {
		panic(fmt.Sprintf("sim: wide Eval on circuit %q: got %d primary-input words, want %d PIs x %d = %d",
			c.Name, len(pi), len(c.PIs), WideWords, len(c.PIs)*WideWords))
	}
	if len(ppi) != len(c.FFs)*WideWords {
		panic(fmt.Sprintf("sim: wide Eval on circuit %q: got %d pseudo-input words, want %d FFs x %d = %d",
			c.Name, len(ppi), len(c.FFs), WideWords, len(c.FFs)*WideWords))
	}
	v := w.v
	for i, n := range c.PIs {
		copy(v[int(n)*WideWords:int(n)*WideWords+WideWords], pi[i*WideWords:])
	}
	for i, ff := range c.FFs {
		copy(v[int(ff.Q)*WideWords:int(ff.Q)*WideWords+WideWords], ppi[i*WideWords:])
	}
	runProg4(w.p, v)
	return v
}

// Wide3 evaluates the combinational core of a frozen circuit in
// three-valued logic, 256 lanes at a time, using a dual-rail encoding:
// net n carries WideWords words on each of two rails, v and x. Bit t of
// the x group set means the net is X (unknown) in lane t; otherwise bit t
// of the v group is its binary value. The encoding is normalized — v
// bits are always clear where the matching x bit is set — and every gate
// operation preserves that invariant.
//
// Bit t of every output (v, x) pair equals exactly what logic.Eval would
// compute for the scalar three-valued inputs at bit t, including the
// optimistic rules (a controlling value forces the output through X side
// inputs; MUX2 with an X select still resolves when both data inputs
// agree on a binary value). The packed minimum-leakage fill rides on this
// to evaluate 256 candidate completions per pass of the compiled program
// while free pseudo-inputs stay X. It holds no lane state, so one
// instance may be shared across goroutines.
type Wide3 struct {
	p *Program
}

// NewWide3 returns a wide three-valued evaluator bound to the frozen
// circuit c, compiling it first.
func NewWide3(c *netlist.Circuit) *Wide3 {
	if !c.Frozen() {
		panic(fmt.Sprintf("sim: NewWide3 needs a frozen circuit (circuit %q is not frozen)", c.Name))
	}
	return NewWide3Program(Compile(c))
}

// NewWide3Program returns a wide three-valued evaluator executing the
// already compiled program p.
func NewWide3Program(p *Program) *Wide3 { return &Wide3{p: p} }

// Circuit returns the evaluated circuit.
func (w *Wide3) Circuit() *netlist.Circuit { return w.p.c }

// Program returns the compiled program the evaluator executes.
func (w *Wide3) Program() *Program { return w.p }

// Lanes returns the lane width (WideLanes).
func (w *Wide3) Lanes() int { return WideLanes }

// EvalNets recomputes every gate-output (v, x) group in place from the
// caller-set PI and pseudo-input groups. v and x each hold WideWords
// words per net, length NumNets*WideWords.
func (w *Wide3) EvalNets(v, x []uint64) {
	c := w.p.c
	nw := c.NumNets() * WideWords
	if len(v) != nw || len(x) != nw {
		panic(fmt.Sprintf("sim: wide3 EvalNets on circuit %q: got v=%d x=%d words, want %d nets x %d = %d",
			c.Name, len(v), len(x), c.NumNets(), WideWords, nw))
	}
	runProg3w4(w.p, v, x)
}

// PackValue sets lane t of the (v, x) pair for one net to the three-valued
// value val, keeping the encoding normalized.
func PackValue(v, x *uint64, t int, val logic.Value) {
	bit := uint64(1) << uint(t)
	switch val {
	case logic.One:
		*v |= bit
		*x &^= bit
	case logic.Zero:
		*v &^= bit
		*x &^= bit
	default:
		*v &^= bit
		*x |= bit
	}
}

// UnpackValue reads lane t of a (v, x) pair back as a three-valued value.
func UnpackValue(v, x uint64, t int) logic.Value {
	bit := uint64(1) << uint(t)
	if x&bit != 0 {
		return logic.X
	}
	if v&bit != 0 {
		return logic.One
	}
	return logic.Zero
}

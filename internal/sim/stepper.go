package sim

import "repro/internal/netlist"

// Stepper is a cycle-accurate sequential simulator: it holds the flip-flop
// state and advances it one clock per Step. Use it to exercise
// materialized netlists (e.g. the stitched scan structure) exactly as
// hardware would behave.
type Stepper struct {
	s     *Simulator
	state []bool
}

// NewStepper creates a stepper with all flops at zero.
func NewStepper(c *netlist.Circuit) *Stepper {
	return &Stepper{s: New(c), state: make([]bool, c.NumFFs())}
}

// Reset clears the flop state.
func (st *Stepper) Reset() {
	for i := range st.state {
		st.state[i] = false
	}
}

// State returns the current flop state (flop order); the caller must not
// modify it.
func (st *Stepper) State() []bool { return st.state }

// Step applies pi for one clock: it evaluates the combinational logic
// with the current state, loads every flop from its D input, and returns
// the per-net values observed during the cycle (owned by the stepper,
// valid until the next call).
func (st *Stepper) Step(pi []bool) []bool {
	vals := st.s.Eval(pi, st.state)
	c := st.s.Circuit()
	for i, ff := range c.FFs {
		st.state[i] = vals[ff.D]
	}
	return vals
}

// Peek evaluates the combinational logic for pi and the current state
// without clocking the flops.
func (st *Stepper) Peek(pi []bool) []bool {
	return st.s.Eval(pi, st.state)
}

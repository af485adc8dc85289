// Package sim provides two- and three-valued logic simulation of the
// combinational core of a circuit, plus the weighted transition counting
// that underlies the dynamic-power estimate of Eq. (1) of the paper
// (P_dyn = f/2 · Σ_i α_i·C_Li·V²).
package sim

import (
	"math/rand"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Simulator evaluates the combinational core of one frozen circuit.
// It is not safe for concurrent use; create one per goroutine.
type Simulator struct {
	c *netlist.Circuit

	vals  []bool        // per-net two-valued state
	vals3 []logic.Value // per-net three-valued state
	inBuf []bool
	in3   []logic.Value
}

// New returns a simulator bound to the frozen circuit c.
func New(c *netlist.Circuit) *Simulator {
	if !c.Frozen() {
		panic("sim: circuit must be frozen")
	}
	return &Simulator{
		c:     c,
		vals:  make([]bool, c.NumNets()),
		vals3: make([]logic.Value, c.NumNets()),
		inBuf: make([]bool, 0, 8),
		in3:   make([]logic.Value, 0, 8),
	}
}

// Circuit returns the simulated circuit.
func (s *Simulator) Circuit() *netlist.Circuit { return s.c }

// Eval evaluates the combinational core. pi holds the primary-input values
// in netlist.Circuit.PIs order, ppi the flip-flop output values in FF
// order. The returned slice is the per-net state, indexed by NetID; it is
// owned by the simulator and overwritten by the next Eval call.
func (s *Simulator) Eval(pi, ppi []bool) []bool {
	c := s.c
	if len(pi) != len(c.PIs) || len(ppi) != len(c.FFs) {
		panic("sim: Eval input length mismatch")
	}
	for i, n := range c.PIs {
		s.vals[n] = pi[i]
	}
	for i, ff := range c.FFs {
		s.vals[ff.Q] = ppi[i]
	}
	for _, gi := range c.Topo() {
		g := &c.Gates[gi]
		s.inBuf = s.inBuf[:0]
		for _, in := range g.Inputs {
			s.inBuf = append(s.inBuf, s.vals[in])
		}
		s.vals[g.Output] = logic.EvalBool(g.Type, s.inBuf)
	}
	return s.vals
}

// Eval3 is Eval over three-valued inputs; unassigned lines carry logic.X.
// The returned slice is indexed by NetID and owned by the simulator.
func (s *Simulator) Eval3(pi, ppi []logic.Value) []logic.Value {
	c := s.c
	if len(pi) != len(c.PIs) || len(ppi) != len(c.FFs) {
		panic("sim: Eval3 input length mismatch")
	}
	for i, n := range c.PIs {
		s.vals3[n] = pi[i]
	}
	for i, ff := range c.FFs {
		s.vals3[ff.Q] = ppi[i]
	}
	for _, gi := range c.Topo() {
		g := &c.Gates[gi]
		s.in3 = s.in3[:0]
		for _, in := range g.Inputs {
			s.in3 = append(s.in3, s.vals3[in])
		}
		s.vals3[g.Output] = logic.Eval(g.Type, s.in3)
	}
	return s.vals3
}

// EvalNets3 evaluates the combinational core from an arbitrary per-net
// assignment of the input nets: assign[n] must be set for every PI and
// pseudo-input net n; all other entries are recomputed in place.
// assign must have length NumNets. It returns assign.
func (s *Simulator) EvalNets3(assign []logic.Value) []logic.Value {
	c := s.c
	if len(assign) != c.NumNets() {
		panic("sim: EvalNets3 length mismatch")
	}
	for _, gi := range c.Topo() {
		g := &c.Gates[gi]
		s.in3 = s.in3[:0]
		for _, in := range g.Inputs {
			s.in3 = append(s.in3, assign[in])
		}
		assign[g.Output] = logic.Eval(g.Type, s.in3)
	}
	return assign
}

// Outputs extracts the primary-output values from a per-net state slice.
func (s *Simulator) Outputs(state []bool) []bool {
	out := make([]bool, len(s.c.POs))
	for i, po := range s.c.POs {
		out[i] = state[po]
	}
	return out
}

// NextState extracts the flip-flop next-state values (pseudo-outputs) from
// a per-net state slice.
func (s *Simulator) NextState(state []bool) []bool {
	out := make([]bool, len(s.c.FFs))
	for i, ff := range s.c.FFs {
		out[i] = state[ff.D]
	}
	return out
}

// ToggleCounter accumulates weighted signal transitions across a sequence
// of evaluations. The weight of net n — physically the capacitance
// switched when the driving gate's output toggles — is supplied per net.
type ToggleCounter struct {
	weights []float64
	prev    []bool
	primed  bool
	total   float64 // weighted sum of all transitions observed
	raw     int64   // unweighted transition count
	cycles  int
}

// NewToggleCounter creates a counter for states of n nets with the given
// per-net weights (len(weights) == n).
func NewToggleCounter(weights []float64) *ToggleCounter {
	return &ToggleCounter{
		weights: weights,
		prev:    make([]bool, len(weights)),
	}
}

// Observe records one new per-net state and returns the weighted
// transition sum of this observation (0 for the priming observation).
func (t *ToggleCounter) Observe(state []bool) float64 {
	if len(state) != len(t.prev) {
		panic("sim: ToggleCounter state length mismatch")
	}
	delta := 0.0
	if t.primed {
		for i, v := range state {
			if v != t.prev[i] {
				delta += t.weights[i]
				t.raw++
			}
		}
		t.total += delta
		t.cycles++
	} else {
		t.primed = true
	}
	copy(t.prev, state)
	return delta
}

// WeightedTotal returns the weight-summed transition count.
func (t *ToggleCounter) WeightedTotal() float64 { return t.total }

// RawTotal returns the unweighted transition count.
func (t *ToggleCounter) RawTotal() int64 { return t.raw }

// Cycles returns the number of observed state changes (observations - 1).
func (t *ToggleCounter) Cycles() int { return t.cycles }

// MeanWeightedPerCycle returns WeightedTotal()/Cycles(), or 0 before two
// observations.
func (t *ToggleCounter) MeanWeightedPerCycle() float64 {
	if t.cycles == 0 {
		return 0
	}
	return t.total / float64(t.cycles)
}

// Reset returns the counter to its unprimed state.
func (t *ToggleCounter) Reset() {
	t.primed = false
	t.total = 0
	t.raw = 0
	t.cycles = 0
}

// RandomVector fills dst with independent fair coin flips from rng.
func RandomVector(rng *rand.Rand, dst []bool) {
	for i := range dst {
		dst[i] = rng.Intn(2) == 1
	}
}
